//! Scenario-driven simulation: JSON-specified traffic traces, topology,
//! fault schedules, and expected outcomes, mirroring the paper artifact's
//! "interpreter specification" files that let Lucid programs be tested
//! against event traces without the Tofino toolchain.
//!
//! A scenario file (`*.sim.json`) holds:
//!
//! * `net` — the topology and timing ([`NetConfig`]): a switch list (or a
//!   mesh size) plus wire/recirculation latencies;
//! * `limits` — event budget and virtual-time horizon;
//! * `init` — initial array state, applied with [`Interp::poke`];
//! * `events` — timed external injections;
//! * `failures` — a switch fail/recover schedule;
//! * `expect` — final array cells/contents and event-count expectations.
//!
//! [`Scenario::from_json`] parses and shape-checks the file;
//! [`Scenario::validate`] resolves it against a checked program (unknown
//! events, bad arity, out-of-range switches and indices all become
//! structured [`ScenarioError`]s); [`run_scenario`] executes it and
//! returns a [`SimReport`] whose [`Mismatch`] list is empty exactly when
//! every expectation held.

use crate::bytecode::{ExecMode, OptLevel};
use crate::machine::{Engine, Interp, InterpError, NetConfig, Stats};

/// The most switches a scenario topology may declare. Every shard holds
/// a full copy of the program's arrays, so an unbounded mesh size would
/// let one line of JSON exhaust memory; this sits far above every bundled
/// and benchmark topology (the largest has 16 switches).
pub const MAX_SWITCHES: u64 = 1024;

/// The most array cells a world may hold: every global array's length,
/// summed, times the number of switches (each shard holds its own copy,
/// eight bytes a cell). Checked before anything is allocated, so a
/// program declaring `new Array<<32>>(4000000000)` is refused instead of
/// aborting the process. 2^26 cells (512 MiB) leave room for the largest
/// bundled program at [`MAX_SWITCHES`].
pub const MAX_CELLS: u64 = 1 << 26;
use crate::metrics::{MetricSel, Metrics};
use crate::value::{fnv_mix, FNV_OFFSET, FNV_PRIME};
use crate::workload::{ArgDist, GenSpec, Phase};
use lucid_check::{mask, CheckedProgram};
use std::fmt;

// ----------------------------------------------------------------- errors

/// A structured scenario failure: where in the file (JSON position or
/// field path) and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The file is not well-formed JSON.
    Json {
        line: usize,
        col: usize,
        msg: String,
    },
    /// The JSON is well-formed but does not fit the scenario schema.
    Schema { path: String, msg: String },
    /// The scenario does not fit the program or topology (unknown event,
    /// wrong arity, out-of-range switch id or array index, ...).
    Validate { path: String, msg: String },
}

impl ScenarioError {
    /// `path` is rendered here, on the error path only, so callers can
    /// pass a lazy [`Loc`] as cheaply as a literal.
    pub(crate) fn schema(path: impl fmt::Display, msg: impl Into<String>) -> Self {
        ScenarioError::Schema {
            path: path.to_string(),
            msg: msg.into(),
        }
    }

    pub(crate) fn validate(path: impl fmt::Display, msg: impl Into<String>) -> Self {
        ScenarioError::Validate {
            path: path.to_string(),
            msg: msg.into(),
        }
    }

    /// One-line JSON rendering (for `lucidc sim --json`).
    pub fn to_json(&self) -> String {
        match self {
            ScenarioError::Json { line, col, msg } => format!(
                "{{\"kind\":\"json\",\"line\":{line},\"col\":{col},\"msg\":\"{}\"}}",
                json_escape(msg)
            ),
            ScenarioError::Schema { path, msg } => format!(
                "{{\"kind\":\"schema\",\"path\":\"{}\",\"msg\":\"{}\"}}",
                json_escape(path),
                json_escape(msg)
            ),
            ScenarioError::Validate { path, msg } => format!(
                "{{\"kind\":\"validate\",\"path\":\"{}\",\"msg\":\"{}\"}}",
                json_escape(path),
                json_escape(msg)
            ),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Json { line, col, msg } => {
                write!(
                    f,
                    "scenario is not valid JSON (line {line}, col {col}): {msg}"
                )
            }
            ScenarioError::Schema { path, msg } => {
                write!(f, "scenario schema error at `{path}`: {msg}")
            }
            ScenarioError::Validate { path, msg } => {
                write!(f, "scenario does not fit the program at `{path}`: {msg}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Why a scenario run failed outright (as opposed to finishing with
/// expectation mismatches, which land in [`SimReport::mismatches`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimRunError {
    Scenario(ScenarioError),
    Runtime(InterpError),
    /// A world snapshot could not be taken, or a restore was refused
    /// (corrupted bytes, or a snapshot from a different program,
    /// scenario, or topology).
    Snapshot(String),
    /// A hot-swap was rejected (the session keeps running its current
    /// program).
    Swap(String),
}

impl fmt::Display for SimRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimRunError::Scenario(e) => write!(f, "{e}"),
            SimRunError::Runtime(e) => write!(f, "runtime fault: {e}"),
            SimRunError::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
            SimRunError::Swap(msg) => write!(f, "swap rejected: {msg}"),
        }
    }
}

impl std::error::Error for SimRunError {}

impl From<ScenarioError> for SimRunError {
    fn from(e: ScenarioError) -> Self {
        SimRunError::Scenario(e)
    }
}

impl From<InterpError> for SimRunError {
    fn from(e: InterpError) -> Self {
        SimRunError::Runtime(e)
    }
}

// ------------------------------------------------------------ the schema

/// One initial-state write: `arrays[array][index] = value` on `switch`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poke {
    pub switch: u64,
    pub array: String,
    pub index: u64,
    pub value: u64,
}

/// One timed external event injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    pub time_ns: u64,
    pub switch: u64,
    pub event: String,
    pub args: Vec<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    Fail,
    Recover,
}

/// One scheduled fault action, applied when the virtual clock reaches
/// `time_ns` (before any event at or after that instant runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureAction {
    pub time_ns: u64,
    pub switch: u64,
    pub kind: FailureKind,
}

/// One expected final array cell (or whole-array contents).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayExpect {
    pub switch: u64,
    pub array: String,
    /// `Some((index, value))` for a single cell; `None` when `values`
    /// pins the whole array.
    pub cell: Option<(u64, u64)>,
    pub values: Option<Vec<u64>>,
}

/// Expected outcomes checked after the run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expectations {
    pub arrays: Vec<ArrayExpect>,
    pub handled: Option<u64>,
    pub dropped: Option<u64>,
    pub exported: Option<u64>,
    pub per_event: Vec<(String, u64)>,
}

/// Comparison operator of one `$.metrics.expect` assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    /// Parse a scenario `op` field.
    pub fn parse(s: &str) -> Option<CmpOp> {
        Some(match s {
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            "==" => CmpOp::Eq,
            "!=" => CmpOp::Ne,
            _ => return None,
        })
    }

    pub fn label(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }

    pub fn holds(self, got: u64, want: u64) -> bool {
        match self {
            CmpOp::Lt => got < want,
            CmpOp::Le => got <= want,
            CmpOp::Gt => got > want,
            CmpOp::Ge => got >= want,
            CmpOp::Eq => got == want,
            CmpOp::Ne => got != want,
        }
    }
}

/// One statistical assertion from the scenario's `metrics` block, e.g.
/// "the p99 dispatch latency of `pkt` on switch 1 is below 5 µs":
/// `{"event":"pkt","switch":1,"metric":"latency_p99_ns","op":"<","value":5000}`.
/// Without `switch` the assertion reads the event's histograms merged
/// across every switch. Metrics are deterministic, so exact assertions
/// (`==`) are as reproducible as bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricExpect {
    pub event: String,
    /// Pin one event class; `None` aggregates the event over all switches.
    pub switch: Option<u64>,
    pub metric: MetricSel,
    pub op: CmpOp,
    pub value: u64,
}

/// A parsed scenario file. (`Eq` stops at `PartialEq`: zipf exponents in
/// generator specs are floats.)
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub name: String,
    pub description: String,
    pub switches: Vec<u64>,
    pub link_latency_ns: u64,
    pub recirc_latency_ns: u64,
    pub exec: ExecMode,
    /// Bytecode optimization level (`"opt"`; default 2, the full
    /// pipeline). `lucidc sim --opt` overrides it.
    pub opt: OptLevel,
    pub max_events: u64,
    pub max_time_ns: u64,
    /// Base seed mixed into every generator's stream (`lucidc sim
    /// --seed` overrides it).
    pub seed: u64,
    pub init: Vec<Poke>,
    pub events: Vec<Injection>,
    /// Streaming workload generators, drained lazily alongside `events`.
    pub generators: Vec<GenSpec>,
    pub failures: Vec<FailureAction>,
    pub expect: Expectations,
    /// Statistical assertions over the run's latency metrics
    /// (`$.metrics.expect`), checked alongside `expect`.
    pub metrics: Vec<MetricExpect>,
}

impl Scenario {
    /// The [`NetConfig`] this scenario describes, with optional executor
    /// and opt-level overrides (e.g. from `lucidc sim --exec=...` /
    /// `--opt=...`).
    pub fn net_config(
        &self,
        exec_override: Option<ExecMode>,
        opt_override: Option<OptLevel>,
    ) -> NetConfig {
        NetConfig {
            switches: self.switches.clone(),
            link_latency_ns: self.link_latency_ns,
            recirc_latency_ns: self.recirc_latency_ns,
            exec: exec_override.unwrap_or(self.exec),
            opt: opt_override.unwrap_or(self.opt),
        }
    }

    /// Parse a `*.sim.json` document. Shape errors carry the offending
    /// field path; syntax errors carry line/column.
    pub fn from_json(src: &str) -> Result<Scenario, ScenarioError> {
        let doc = json::parse(src)?;
        let fields = obj(&doc, "$")?;
        check_keys(
            fields,
            &[
                "name",
                "description",
                "net",
                "exec",
                "opt",
                "limits",
                "seed",
                "init",
                "events",
                "generators",
                "failures",
                "expect",
                "metrics",
            ],
            "$",
        )?;

        let name = match get(fields, "name") {
            Some(j) => str_of(j, "$.name")?.to_string(),
            None => "unnamed".to_string(),
        };
        let description = match get(fields, "description") {
            Some(j) => str_of(j, "$.description")?.to_string(),
            None => String::new(),
        };

        let mut switches: Vec<u64> = vec![1];
        let mut link_latency_ns = 1_000;
        let mut recirc_latency_ns = 600;
        if let Some(net) = get(fields, "net") {
            let nf = obj(net, "$.net")?;
            check_keys(
                nf,
                &["switches", "link_latency_ns", "recirc_latency_ns"],
                "$.net",
            )?;
            if let Some(sw) = get(nf, "switches") {
                switches = match sw {
                    json::Json::Num(_) => {
                        let n = u64_of(sw, "$.net.switches")?;
                        if n == 0 {
                            return Err(ScenarioError::schema(
                                "$.net.switches",
                                "a mesh needs at least one switch",
                            ));
                        }
                        if n > MAX_SWITCHES {
                            return Err(too_many_switches(n));
                        }
                        (1..=n).collect()
                    }
                    json::Json::Arr(items) => {
                        if items.len() as u64 > MAX_SWITCHES {
                            return Err(too_many_switches(items.len() as u64));
                        }
                        let mut ids = Vec::with_capacity(items.len());
                        for (i, item) in items.iter().enumerate() {
                            ids.push(u64_of(item, Loc::Root("$.net.switches").index(i))?);
                        }
                        if ids.is_empty() {
                            return Err(ScenarioError::schema(
                                "$.net.switches",
                                "topology needs at least one switch",
                            ));
                        }
                        let mut sorted = ids.clone();
                        sorted.sort_unstable();
                        sorted.dedup();
                        if sorted.len() != ids.len() {
                            return Err(ScenarioError::schema(
                                "$.net.switches",
                                "duplicate switch id",
                            ));
                        }
                        ids
                    }
                    _ => {
                        return Err(ScenarioError::schema(
                            "$.net.switches",
                            "expected a switch-id array or a mesh size",
                        ))
                    }
                };
            }
            if let Some(j) = get(nf, "link_latency_ns") {
                link_latency_ns = u64_of(j, "$.net.link_latency_ns")?;
            }
            if let Some(j) = get(nf, "recirc_latency_ns") {
                recirc_latency_ns = u64_of(j, "$.net.recirc_latency_ns")?;
            }
        }

        let exec = match get(fields, "exec") {
            None => ExecMode::Ast,
            Some(json::Json::Str(s)) => ExecMode::parse(s).ok_or_else(|| {
                ScenarioError::schema(
                    "$.exec",
                    format!("unknown exec mode `{s}` (expected `ast` or `bytecode`)"),
                )
            })?,
            Some(_) => {
                return Err(ScenarioError::schema(
                    "$.exec",
                    "expected an exec-mode name (`ast` or `bytecode`)",
                ))
            }
        };

        let opt = match get(fields, "opt") {
            None => OptLevel::default(),
            Some(j @ json::Json::Num(_)) => match u64_of(j, "$.opt")? {
                0 => OptLevel::O0,
                1 => OptLevel::O1,
                2 => OptLevel::O2,
                n => {
                    return Err(ScenarioError::schema(
                        "$.opt",
                        format!("unknown opt level `{n}` (expected 0, 1, or 2)"),
                    ))
                }
            },
            Some(_) => {
                return Err(ScenarioError::schema(
                    "$.opt",
                    "expected an optimization level (0, 1, or 2)",
                ))
            }
        };

        let mut max_events = 1_000_000;
        let mut max_time_ns = u64::MAX;
        if let Some(limits) = get(fields, "limits") {
            let lf = obj(limits, "$.limits")?;
            check_keys(lf, &["max_events", "max_time_ns"], "$.limits")?;
            if let Some(j) = get(lf, "max_events") {
                max_events = u64_of(j, "$.limits.max_events")?;
            }
            if let Some(j) = get(lf, "max_time_ns") {
                max_time_ns = u64_of(j, "$.limits.max_time_ns")?;
            }
        }

        let seed = match get(fields, "seed") {
            Some(j) => u64_of(j, "$.seed")?,
            None => 0,
        };

        let generators = match get(fields, "generators") {
            Some(j) => generators_of(j, "$.generators")?,
            None => Vec::new(),
        };

        let mut init = Vec::new();
        if let Some(items) = get(fields, "init") {
            let root = Loc::Root("$.init");
            for (i, item) in arr(items, root)?.iter().enumerate() {
                let path = root.index(i);
                let pf = obj(item, path)?;
                check_keys(pf, &["switch", "array", "index", "value"], path)?;
                init.push(Poke {
                    switch: u64_of(req(pf, "switch", path)?, path.field("switch"))?,
                    array: str_of(req(pf, "array", path)?, path.field("array"))?.to_string(),
                    index: u64_of(req(pf, "index", path)?, path.field("index"))?,
                    value: u64_of(req(pf, "value", path)?, path.field("value"))?,
                });
            }
        }

        let events = match get(fields, "events") {
            Some(items) => injections_of(items, "$.events")?,
            None => Vec::new(),
        };

        let mut failures = Vec::new();
        if let Some(items) = get(fields, "failures") {
            let root = Loc::Root("$.failures");
            for (i, item) in arr(items, root)?.iter().enumerate() {
                let path = root.index(i);
                let ff = obj(item, path)?;
                check_keys(ff, &["time_ns", "switch", "action"], path)?;
                let action = str_of(req(ff, "action", path)?, path.field("action"))?;
                let kind = match action {
                    "fail" => FailureKind::Fail,
                    "recover" => FailureKind::Recover,
                    other => {
                        return Err(ScenarioError::schema(
                            path.field("action"),
                            format!("unknown action `{other}` (expected `fail` or `recover`)"),
                        ))
                    }
                };
                let time_ns = u64_of(req(ff, "time_ns", path)?, path.field("time_ns"))?;
                if time_ns == 0 {
                    return Err(ScenarioError::schema(
                        path.field("time_ns"),
                        "failure actions must be scheduled at time >= 1 ns \
                         (use `init` for time-zero state)",
                    ));
                }
                failures.push(FailureAction {
                    time_ns,
                    switch: u64_of(req(ff, "switch", path)?, path.field("switch"))?,
                    kind,
                });
            }
        }

        let mut expect = Expectations::default();
        if let Some(exp) = get(fields, "expect") {
            let xf = obj(exp, "$.expect")?;
            check_keys(
                xf,
                &["arrays", "handled", "dropped", "exported", "per_event"],
                "$.expect",
            )?;
            if let Some(j) = get(xf, "handled") {
                expect.handled = Some(u64_of(j, "$.expect.handled")?);
            }
            if let Some(j) = get(xf, "dropped") {
                expect.dropped = Some(u64_of(j, "$.expect.dropped")?);
            }
            if let Some(j) = get(xf, "exported") {
                expect.exported = Some(u64_of(j, "$.expect.exported")?);
            }
            if let Some(pe) = get(xf, "per_event") {
                for (name, j) in obj(pe, "$.expect.per_event")? {
                    expect.per_event.push((
                        name.clone(),
                        u64_of(j, Loc::Root("$.expect.per_event").field(name))?,
                    ));
                }
            }
            if let Some(items) = get(xf, "arrays") {
                let root = Loc::Root("$.expect.arrays");
                for (i, item) in arr(items, root)?.iter().enumerate() {
                    let path = root.index(i);
                    let af = obj(item, path)?;
                    check_keys(af, &["switch", "array", "index", "value", "values"], path)?;
                    let switch = u64_of(req(af, "switch", path)?, path.field("switch"))?;
                    let array = str_of(req(af, "array", path)?, path.field("array"))?.to_string();
                    let cell = match (get(af, "index"), get(af, "value")) {
                        (Some(i_), Some(v)) => Some((
                            u64_of(i_, path.field("index"))?,
                            u64_of(v, path.field("value"))?,
                        )),
                        (None, None) => None,
                        _ => {
                            return Err(ScenarioError::schema(
                                path,
                                "`index` and `value` must be given together",
                            ))
                        }
                    };
                    let values = match get(af, "values") {
                        Some(list) => {
                            let vpath = path.field("values");
                            let mut vs = Vec::new();
                            for (k, v) in arr(list, vpath)?.iter().enumerate() {
                                vs.push(u64_of(v, vpath.index(k))?);
                            }
                            Some(vs)
                        }
                        None => None,
                    };
                    if cell.is_none() && values.is_none() {
                        return Err(ScenarioError::schema(
                            path,
                            "expected either `index`+`value` or `values`",
                        ));
                    }
                    expect.arrays.push(ArrayExpect {
                        switch,
                        array,
                        cell,
                        values,
                    });
                }
            }
        }

        let mut metrics = Vec::new();
        if let Some(m) = get(fields, "metrics") {
            let mf = obj(m, "$.metrics")?;
            check_keys(mf, &["expect"], "$.metrics")?;
            if let Some(items) = get(mf, "expect") {
                let root = Loc::Root("$.metrics.expect");
                for (i, item) in arr(items, root)?.iter().enumerate() {
                    let path = root.index(i);
                    let xf = obj(item, path)?;
                    check_keys(xf, &["event", "switch", "metric", "op", "value"], path)?;
                    let event = str_of(req(xf, "event", path)?, path.field("event"))?;
                    let switch = match get(xf, "switch") {
                        Some(j) => Some(u64_of(j, path.field("switch"))?),
                        None => None,
                    };
                    let sel = str_of(req(xf, "metric", path)?, path.field("metric"))?;
                    let Some(metric) = MetricSel::parse(sel) else {
                        return Err(ScenarioError::schema(
                            path.field("metric"),
                            format!(
                                "unknown metric `{sel}` (expected one of {})",
                                MetricSel::all_labels().join(", ")
                            ),
                        ));
                    };
                    let op_s = str_of(req(xf, "op", path)?, path.field("op"))?;
                    let Some(op) = CmpOp::parse(op_s) else {
                        return Err(ScenarioError::schema(
                            path.field("op"),
                            format!("unknown operator `{op_s}` (expected <, <=, >, >=, ==, !=)"),
                        ));
                    };
                    metrics.push(MetricExpect {
                        event: event.to_string(),
                        switch,
                        metric,
                        op,
                        value: u64_of(req(xf, "value", path)?, path.field("value"))?,
                    });
                }
            }
        }

        Ok(Scenario {
            name,
            description,
            switches,
            link_latency_ns,
            recirc_latency_ns,
            exec,
            opt,
            max_events,
            max_time_ns,
            seed,
            init,
            events,
            generators,
            failures,
            expect,
            metrics,
        })
    }

    /// Parse a standalone generator-spec document (`lucidc sim --gen`):
    /// either one generator object or an array of them, using the same
    /// schema as the scenario's `generators` section.
    pub fn parse_generators(src: &str) -> Result<Vec<GenSpec>, ScenarioError> {
        let doc = json::parse(src)?;
        match &doc {
            json::Json::Arr(_) => generators_of(&doc, "$"),
            json::Json::Obj(_) => Ok(vec![generator_of(&doc, Loc::Root("$"), 0)?]),
            other => Err(ScenarioError::schema(
                "$",
                format!(
                    "expected a generator object or an array of them, found {}",
                    other.kind()
                ),
            )),
        }
    }

    /// Resolve the scenario against a checked program: every event name,
    /// arity, array name, switch id, array index, and initial cell value
    /// must fit.
    pub fn validate(&self, prog: &CheckedProgram) -> Result<(), ScenarioError> {
        check_cell_budget(prog, self.switches.len())?;
        let known_switch = |s: u64| self.switches.contains(&s);
        let array_len = |name: &str| -> Option<u64> {
            prog.info
                .globals_by_name
                .get(name)
                .map(|gid| prog.info.globals[gid.0].len)
        };

        let root = Loc::Root("$.init");
        for (i, p) in self.init.iter().enumerate() {
            let path = root.index(i);
            if !known_switch(p.switch) {
                return Err(ScenarioError::validate(
                    path.field("switch"),
                    format!("switch {} is not in the topology", p.switch),
                ));
            }
            let Some(len) = array_len(&p.array) else {
                return Err(ScenarioError::validate(
                    path.field("array"),
                    format!("no global array named `{}`", p.array),
                ));
            };
            if p.index >= len {
                return Err(ScenarioError::validate(
                    path.field("index"),
                    format!(
                        "index {} out of range for `{}` (len {len})",
                        p.index, p.array
                    ),
                ));
            }
            // An oversized value used to be masked silently on write,
            // leaving the author none the wiser that their initial state
            // was not what they asked for.
            let width = prog.info.globals[prog.info.globals_by_name[&p.array].0].cell_width;
            if mask(p.value, width) != p.value {
                return Err(ScenarioError::validate(
                    path.field("value"),
                    format!(
                        "value {} does not fit `{}`'s {width}-bit cells \
                         (max {})",
                        p.value,
                        p.array,
                        mask(u64::MAX, width)
                    ),
                ));
            }
        }

        let root = Loc::Root("$.generators");
        for (i, g) in self.generators.iter().enumerate() {
            let path = root.index(i);
            let Some(ev) = prog.info.event(&g.event) else {
                return Err(ScenarioError::validate(
                    path.field("event"),
                    format!("no event named `{}`", g.event),
                ));
            };
            if ev.params.len() != g.args.len() {
                return Err(ScenarioError::validate(
                    path.field("args"),
                    format!(
                        "event `{}` wants {} args, got {}",
                        g.event,
                        ev.params.len(),
                        g.args.len()
                    ),
                ));
            }
            for (k, s) in g.switches.iter().enumerate() {
                if !known_switch(*s) {
                    let spath = path.field("switches");
                    let field = if g.switches.len() == 1 {
                        path.field("switch")
                    } else {
                        spath.index(k)
                    };
                    return Err(ScenarioError::validate(
                        field,
                        format!("switch {s} is not in the topology"),
                    ));
                }
            }
        }

        let root = Loc::Root("$.events");
        for (i, inj) in self.events.iter().enumerate() {
            let path = root.index(i);
            if !known_switch(inj.switch) {
                return Err(ScenarioError::validate(
                    path.field("switch"),
                    format!("switch {} is not in the topology", inj.switch),
                ));
            }
            let Some(ev) = prog.info.event(&inj.event) else {
                return Err(ScenarioError::validate(
                    path.field("event"),
                    format!("no event named `{}`", inj.event),
                ));
            };
            if ev.params.len() != inj.args.len() {
                return Err(ScenarioError::validate(
                    path.field("args"),
                    format!(
                        "event `{}` wants {} args, got {}",
                        inj.event,
                        ev.params.len(),
                        inj.args.len()
                    ),
                ));
            }
        }

        for (i, f) in self.failures.iter().enumerate() {
            if !known_switch(f.switch) {
                return Err(ScenarioError::validate(
                    Loc::Root("$.failures").index(i).field("switch"),
                    format!("switch {} is not in the topology", f.switch),
                ));
            }
        }

        let root = Loc::Root("$.expect.arrays");
        for (i, x) in self.expect.arrays.iter().enumerate() {
            let path = root.index(i);
            if !known_switch(x.switch) {
                return Err(ScenarioError::validate(
                    path.field("switch"),
                    format!("switch {} is not in the topology", x.switch),
                ));
            }
            let Some(len) = array_len(&x.array) else {
                return Err(ScenarioError::validate(
                    path.field("array"),
                    format!("no global array named `{}`", x.array),
                ));
            };
            if let Some((idx, _)) = x.cell {
                if idx >= len {
                    return Err(ScenarioError::validate(
                        path.field("index"),
                        format!("index {idx} out of range for `{}` (len {len})", x.array),
                    ));
                }
            }
            if let Some(vs) = &x.values {
                if vs.len() as u64 != len {
                    return Err(ScenarioError::validate(
                        path.field("values"),
                        format!(
                            "`{}` has {len} cells but {} values were given",
                            x.array,
                            vs.len()
                        ),
                    ));
                }
            }
        }

        for (name, _) in &self.expect.per_event {
            if prog.info.event(name).is_none() {
                return Err(ScenarioError::validate(
                    Loc::Root("$.expect.per_event").field(name),
                    format!("no event named `{name}`"),
                ));
            }
        }

        let root = Loc::Root("$.metrics.expect");
        for (i, m) in self.metrics.iter().enumerate() {
            let path = root.index(i);
            if prog.info.event(&m.event).is_none() {
                return Err(ScenarioError::validate(
                    path.field("event"),
                    format!("no event named `{}`", m.event),
                ));
            }
            if let Some(s) = m.switch {
                if !known_switch(s) {
                    return Err(ScenarioError::validate(
                        path.field("switch"),
                        format!("switch {s} is not in the topology"),
                    ));
                }
            }
        }

        Ok(())
    }
}

// ----------------------------------------------------------------- report

/// One failed expectation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mismatch {
    /// A final array cell differed.
    Array {
        switch: u64,
        array: String,
        index: u64,
        want: u64,
        got: u64,
    },
    /// An expected array sits on a switch that ended the run failed.
    FailedSwitch { switch: u64, array: String },
    /// An event-count expectation differed (`what` is `handled`,
    /// `dropped`, `exported`, or `event:<name>`).
    Count { what: String, want: u64, got: u64 },
    /// A `$.metrics.expect` assertion failed. `class` is `event@switch`
    /// or just `event` for all-switch aggregates; `metric` is the
    /// selector's canonical name; `op`/`want` restate the assertion.
    Metric {
        class: String,
        metric: &'static str,
        op: &'static str,
        want: u64,
        got: u64,
    },
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mismatch::Array {
                switch,
                array,
                index,
                want,
                got,
            } => write!(
                f,
                "switch {switch} `{array}[{index}]`: expected {want}, got {got}"
            ),
            Mismatch::FailedSwitch { switch, array } => write!(
                f,
                "switch {switch} `{array}`: switch ended the run failed; its arrays are gone"
            ),
            Mismatch::Count { what, want, got } => {
                write!(f, "{what}: expected {want}, got {got}")
            }
            Mismatch::Metric {
                class,
                metric,
                op,
                want,
                got,
            } => write!(
                f,
                "metrics `{class}` {metric}: expected {op} {want}, got {got}"
            ),
        }
    }
}

impl Mismatch {
    pub fn to_json(&self) -> String {
        match self {
            Mismatch::Array {
                switch,
                array,
                index,
                want,
                got,
            } => format!(
                "{{\"kind\":\"array\",\"switch\":{switch},\"array\":\"{}\",\
                 \"index\":{index},\"want\":{want},\"got\":{got}}}",
                json_escape(array)
            ),
            Mismatch::FailedSwitch { switch, array } => format!(
                "{{\"kind\":\"failed_switch\",\"switch\":{switch},\"array\":\"{}\"}}",
                json_escape(array)
            ),
            Mismatch::Count { what, want, got } => format!(
                "{{\"kind\":\"count\",\"what\":\"{}\",\"want\":{want},\"got\":{got}}}",
                json_escape(what)
            ),
            Mismatch::Metric {
                class,
                metric,
                op,
                want,
                got,
            } => format!(
                "{{\"kind\":\"metric\",\"class\":\"{}\",\"metric\":\"{metric}\",\
                 \"op\":\"{}\",\"want\":{want},\"got\":{got}}}",
                json_escape(class),
                json_escape(op)
            ),
        }
    }
}

/// The outcome of one scenario run: statistics, timings, and every failed
/// expectation.
#[derive(Debug, Clone)]
pub struct SimReport {
    pub scenario: String,
    pub engine: &'static str,
    /// Which executor ran handler bodies (`ast` or `bytecode`).
    pub exec: &'static str,
    /// The bytecode optimization level the run used (`"0"`/`"1"`/`"2"`;
    /// reported even under the AST walker, which ignores it).
    pub opt: &'static str,
    pub switches: usize,
    pub stats: Stats,
    /// Final virtual clock, nanoseconds.
    pub sim_ns: u64,
    /// Wall-clock run time, milliseconds.
    pub wall_ms: f64,
    /// Processed events per wall-clock second.
    pub events_per_sec: f64,
    /// FNV-1a digest of every switch's final array state, in switch and
    /// declaration order (failed switches hash as a marker). Two runs of
    /// one scenario agree on this exactly when their final states are
    /// byte-identical — the cheap cross-executor determinism check.
    pub state_digest: u64,
    /// Per-generator injection counts, in declaration order (empty when
    /// the scenario has no `generators` section).
    pub gens: Vec<(String, u64)>,
    /// Per-event-class latency metrics (dispatch latency and queue
    /// residency histograms with tail percentiles). Deterministic and
    /// executor-independent like `state_digest`.
    pub metrics: Metrics,
    pub mismatches: Vec<Mismatch>,
}

impl SimReport {
    /// True when every expectation held.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The machine-readable form `lucidc sim --json` prints.
    pub fn to_json(&self) -> String {
        let mm: Vec<String> = self.mismatches.iter().map(Mismatch::to_json).collect();
        let gens: Vec<String> = self
            .gens
            .iter()
            .map(|(name, n)| format!("{{\"name\":\"{}\",\"injected\":{n}}}", json_escape(name)))
            .collect();
        format!(
            "{{\"scenario\":\"{}\",\"engine\":\"{}\",\"exec\":\"{}\",\"opt\":{},\"switches\":{},\
             \"events_processed\":{},\"events_handled\":{},\"recirculated\":{},\
             \"sent_remote\":{},\"exported\":{},\"dropped\":{},\
             \"sim_ns\":{},\"wall_ms\":{:.3},\"events_per_sec\":{:.0},\
             \"state_digest\":\"{:016x}\",\"metrics\":{},\"generators\":[{}],\
             \"ok\":{},\"mismatches\":[{}]}}",
            json_escape(&self.scenario),
            self.engine,
            self.exec,
            self.opt,
            self.switches,
            self.stats.processed,
            self.stats.handled,
            self.stats.recirculated,
            self.stats.sent_remote,
            self.stats.exported,
            self.stats.dropped,
            self.sim_ns,
            self.wall_ms,
            self.events_per_sec,
            self.state_digest,
            self.metrics.to_json(),
            gens.join(","),
            self.passed(),
            mm.join(",")
        )
    }

    /// Human-readable summary (the default `lucidc sim` output).
    pub fn render(&self) -> String {
        let mut out = format!(
            "scenario `{}`: {} switches, {} engine, {} exec (opt {})\n\
             events: {} processed ({} handled, {} recirculated, {} remote, \
             {} exported, {} dropped)\n\
             time:   {} sim-ns in {:.3} wall-ms ({:.0} events/sec)\n",
            self.scenario,
            self.switches,
            self.engine,
            self.exec,
            self.opt,
            self.stats.processed,
            self.stats.handled,
            self.stats.recirculated,
            self.stats.sent_remote,
            self.stats.exported,
            self.stats.dropped,
            self.sim_ns,
            self.wall_ms,
            self.events_per_sec,
        );
        if !self.gens.is_empty() {
            let parts: Vec<String> = self
                .gens
                .iter()
                .map(|(name, n)| format!("{name}={n}"))
                .collect();
            out.push_str(&format!("generators: {}\n", parts.join(", ")));
        }
        if self.passed() {
            out.push_str("expectations: all met\n");
        } else {
            out.push_str(&format!("expectations: {} FAILED\n", self.mismatches.len()));
            for m in &self.mismatches {
                out.push_str(&format!("  mismatch: {m}\n"));
            }
        }
        out
    }
}

// ----------------------------------------------------------------- runner

/// Run-time knobs layered over a scenario's own choices (`lucidc sim
/// --exec/--opt/--seed/--events/--no-trace`). [`Default`] overrides
/// nothing; the builder methods set one knob each and chain:
///
/// ```
/// use lucid_interp::{ExecMode, SimOptions};
/// let opts = SimOptions::new().exec(ExecMode::Bytecode).seed(7).record_trace(false);
/// assert_eq!(opts.seed, Some(7));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SimOptions {
    pub exec: Option<ExecMode>,
    /// Replaces the scenario's bytecode optimization level (`--opt`;
    /// a no-op under the AST walker).
    pub opt: Option<OptLevel>,
    /// Replaces the scenario's top-level `seed` (reshuffles every
    /// generator stream).
    pub seed: Option<u64>,
    /// Sets the total number of generator-sourced injections. Below the
    /// authored total the merged stream just stops early; above it,
    /// per-generator `count` caps scale up proportionally so the stream
    /// can reach the target. The event budget is raised to at least 4x
    /// the target so scaling past the authored `limits.max_events` does
    /// not trip the fuel limit.
    ///
    /// Either workload override (`seed` or `events`) invalidates the
    /// scenario's authored expectations — the run reports its statistics
    /// and digest but skips the `expect` checks.
    pub events: Option<u64>,
    /// `Some(false)` disables trace retention for the run: handled and
    /// exported events are not logged (stats, per-event counts, metrics,
    /// `printf` output, and the state digest are unchanged). Benchmarks
    /// use it so wall-clock rows don't pay for a log nobody reads; the
    /// report drops the trace regardless.
    pub record_trace: Option<bool>,
}

impl SimOptions {
    /// Options that override nothing (same as [`Default`]).
    pub fn new() -> SimOptions {
        SimOptions::default()
    }

    /// Picks the driver. There is only [`Engine::Sequential`], so this
    /// changes nothing.
    #[deprecated(note = "there is one engine; a later benchmark revision removes this call")]
    pub fn engine(self, engine: Engine) -> SimOptions {
        let _ = engine;
        self
    }

    pub fn exec(mut self, exec: ExecMode) -> SimOptions {
        self.exec = Some(exec);
        self
    }

    pub fn opt(mut self, opt: OptLevel) -> SimOptions {
        self.opt = Some(opt);
        self
    }

    pub fn seed(mut self, seed: u64) -> SimOptions {
        self.seed = Some(seed);
        self
    }

    pub fn events(mut self, events: u64) -> SimOptions {
        self.events = Some(events);
        self
    }

    pub fn record_trace(mut self, on: bool) -> SimOptions {
        self.record_trace = Some(on);
        self
    }

    /// Resolve the effective network configuration for `sc`: the
    /// scenario's choices, overridden knob by knob.
    pub(crate) fn resolve(&self, sc: &Scenario) -> NetConfig {
        sc.net_config(self.exec, self.opt)
    }
}

/// Validate and execute a scenario against a checked program. The
/// executor can be overridden (CLI `--exec`); otherwise the scenario's
/// own choice runs. Expectation failures are *not* errors — they come
/// back in [`SimReport::mismatches`] so the caller can render all of
/// them.
pub fn run_scenario(
    prog: &CheckedProgram,
    sc: &Scenario,
    exec_override: Option<ExecMode>,
) -> Result<SimReport, SimRunError> {
    run_scenario_with(
        prog,
        sc,
        &SimOptions {
            exec: exec_override,
            ..SimOptions::default()
        },
    )
}

/// [`run_scenario`] with the full option set, including the workload
/// knobs (`--seed`, `--events`). One-shot runs are a served session
/// opened and drained in one breath — [`crate::session::SimSession`] is
/// the single execution path, which is what makes a served world
/// bit-identical to this function by construction.
pub fn run_scenario_with(
    prog: &CheckedProgram,
    sc: &Scenario,
    ov: &SimOptions,
) -> Result<SimReport, SimRunError> {
    let mut session = crate::session::SimSession::open(prog, sc, ov)?;
    session.drain()
}

/// FNV-1a over every configured switch's final arrays, in sorted switch
/// order and declaration order.
pub(crate) fn digest_state(prog: &CheckedProgram, sim: &Interp, switches: &[u64]) -> u64 {
    let mut sorted = switches.to_vec();
    sorted.sort_unstable();
    let mut h = FNV_OFFSET;
    for s in sorted {
        h = fnv_mix::<FNV_PRIME>(h, s);
        if !sim.alive(s) {
            h = fnv_mix::<FNV_PRIME>(h, u64::MAX); // failed switch marker
            continue;
        }
        for g in &prog.info.globals {
            for &cell in sim.try_array(s, &g.name).expect("alive switch") {
                h = fnv_mix::<FNV_PRIME>(h, cell);
            }
        }
    }
    h
}

pub(crate) fn check_expectations(sim: &Interp, expect: &Expectations, out: &mut Vec<Mismatch>) {
    for x in &expect.arrays {
        let Some(actual) = sim.try_array(x.switch, &x.array) else {
            out.push(Mismatch::FailedSwitch {
                switch: x.switch,
                array: x.array.clone(),
            });
            continue;
        };
        if let Some((idx, want)) = x.cell {
            let got = actual[idx as usize];
            if got != want {
                out.push(Mismatch::Array {
                    switch: x.switch,
                    array: x.array.clone(),
                    index: idx,
                    want,
                    got,
                });
            }
        }
        if let Some(want_all) = &x.values {
            for (idx, (&want, &got)) in want_all.iter().zip(actual.iter()).enumerate() {
                if want != got {
                    out.push(Mismatch::Array {
                        switch: x.switch,
                        array: x.array.clone(),
                        index: idx as u64,
                        want,
                        got,
                    });
                }
            }
        }
    }
    let mut count = |what: &str, want: Option<u64>, got: u64| {
        if let Some(want) = want {
            if want != got {
                out.push(Mismatch::Count {
                    what: what.to_string(),
                    want,
                    got,
                });
            }
        }
    };
    count("handled", expect.handled, sim.stats.handled);
    count("dropped", expect.dropped, sim.stats.dropped);
    count("exported", expect.exported, sim.stats.exported);
    for (name, want) in &expect.per_event {
        let got = sim.stats.per_event.get(name).copied().unwrap_or(0);
        count(&format!("event:{name}"), Some(*want), got);
    }
}

/// Evaluate every `$.metrics.expect` assertion against the run's merged
/// metrics. A class that never dispatched reads as an empty histogram
/// pair (count 0, every percentile 0), so "count >= N" naturally fails
/// and "latency < K" trivially holds on silence — assert `count` too
/// when silence would be a bug.
pub(crate) fn check_metric_expectations(
    metrics: &Metrics,
    expect: &[MetricExpect],
    out: &mut Vec<Mismatch>,
) {
    for m in expect {
        let hists = match m.switch {
            Some(s) => metrics.class(s, &m.event).map(|c| c.hists.clone()),
            None => metrics.aggregate_event(&m.event),
        }
        .unwrap_or_default();
        let got = m.metric.read(&hists);
        if !m.op.holds(got, m.value) {
            let class = match m.switch {
                Some(s) => format!("{}@{s}", m.event),
                None => m.event.clone(),
            };
            out.push(Mismatch::Metric {
                class,
                metric: m.metric.label(),
                op: m.op.label(),
                want: m.value,
                got,
            });
        }
    }
}

/// Escape a string's content for embedding inside a JSON string literal
/// (surrounding quotes not included). The workspace builds offline with
/// no serde, so every hand-built JSON emitter shares this one table.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ------------------------------------------------------ generator schema

/// Parse a scenario `events` array (shared with the serve `ingest` verb,
/// whose batches use the same shape).
pub(crate) fn injections_of(j: &json::Json, path: &str) -> Result<Vec<Injection>, ScenarioError> {
    let items = arr(j, path)?;
    let root = Loc::Root(path);
    let mut events = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let path = root.index(i);
        let ef = obj(item, path)?;
        check_keys(ef, &["time_ns", "switch", "event", "args"], path)?;
        let mut args = Vec::new();
        if let Some(list) = get(ef, "args") {
            let apath = path.field("args");
            let list = arr(list, apath)?;
            args.reserve_exact(list.len());
            for (k, a) in list.iter().enumerate() {
                args.push(u64_of(a, apath.index(k))?);
            }
        }
        events.push(Injection {
            time_ns: u64_of(req(ef, "time_ns", path)?, path.field("time_ns"))?,
            switch: u64_of(req(ef, "switch", path)?, path.field("switch"))?,
            event: str_of(req(ef, "event", path)?, path.field("event"))?.to_string(),
            args,
        });
    }
    Ok(events)
}

pub(crate) fn generators_of(j: &json::Json, path: &str) -> Result<Vec<GenSpec>, ScenarioError> {
    let items = arr(j, path)?;
    let root = Loc::Root(path);
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        out.push(generator_of(item, root.index(i), i)?);
    }
    // Names key the per-generator report rows; duplicates would merge.
    for (i, g) in out.iter().enumerate() {
        if out[..i].iter().any(|h| h.name == g.name) {
            return Err(ScenarioError::schema(
                root.index(i).field("name"),
                format!("duplicate generator name `{}`", g.name),
            ));
        }
    }
    Ok(out)
}

/// A required rate expressed either way: `rate_eps` (events per virtual
/// second) or a raw `interval_ns` gap.
fn interval_of(fields: &[(String, json::Json)], path: Loc<'_>) -> Result<u64, ScenarioError> {
    match (get(fields, "rate_eps"), get(fields, "interval_ns")) {
        (Some(_), Some(_)) => Err(ScenarioError::schema(
            path,
            "give either `rate_eps` or `interval_ns`, not both",
        )),
        (Some(r), None) => {
            let rate = u64_of(r, path.field("rate_eps"))?;
            if rate == 0 {
                return Err(ScenarioError::schema(
                    path.field("rate_eps"),
                    "rate must be at least 1 event per second",
                ));
            }
            Ok((1_000_000_000 / rate).max(1))
        }
        (None, Some(iv)) => {
            let iv = u64_of(iv, path.field("interval_ns"))?;
            if iv == 0 {
                return Err(ScenarioError::schema(
                    path.field("interval_ns"),
                    "the inter-arrival interval must be at least 1 ns",
                ));
            }
            Ok(iv)
        }
        (None, None) => Err(ScenarioError::schema(
            path,
            "missing rate: give `rate_eps` or `interval_ns`",
        )),
    }
}

fn generator_of(j: &json::Json, path: Loc<'_>, index: usize) -> Result<GenSpec, ScenarioError> {
    let gf = obj(j, path)?;
    check_keys(
        gf,
        &[
            "name",
            "event",
            "switch",
            "switches",
            "rate_eps",
            "interval_ns",
            "jitter_ns",
            "start_ns",
            "stop_ns",
            "count",
            "seed",
            "args",
            "phases",
        ],
        path,
    )?;
    let name = match get(gf, "name") {
        Some(n) => str_of(n, path.field("name"))?.to_string(),
        None => format!("gen{index}"),
    };
    let event = str_of(req(gf, "event", path)?, path.field("event"))?.to_string();
    let switches = match (get(gf, "switch"), get(gf, "switches")) {
        (Some(_), Some(_)) => {
            return Err(ScenarioError::schema(
                path,
                "give either `switch` or `switches`, not both",
            ))
        }
        (Some(s), None) => vec![u64_of(s, path.field("switch"))?],
        (None, Some(list)) => {
            let spath = path.field("switches");
            let items = arr(list, spath)?;
            if items.is_empty() {
                return Err(ScenarioError::schema(spath, "needs at least one switch"));
            }
            let mut ids = Vec::with_capacity(items.len());
            for (k, s) in items.iter().enumerate() {
                ids.push(u64_of(s, spath.index(k))?);
            }
            ids
        }
        (None, None) => vec![1],
    };
    let interval_ns = interval_of(gf, path)?;
    let jitter_ns = match get(gf, "jitter_ns") {
        Some(v) => u64_of(v, path.field("jitter_ns"))?,
        None => 0,
    };
    let start_ns = match get(gf, "start_ns") {
        Some(v) => u64_of(v, path.field("start_ns"))?,
        None => 0,
    };
    let stop_ns = get(gf, "stop_ns")
        .map(|v| u64_of(v, path.field("stop_ns")))
        .transpose()?;
    let count = get(gf, "count")
        .map(|v| u64_of(v, path.field("count")))
        .transpose()?;
    if stop_ns.is_none() && count.is_none() {
        return Err(ScenarioError::schema(
            path,
            "the generator is unbounded: give `count`, `stop_ns`, or both",
        ));
    }
    if let Some(stop) = stop_ns {
        if stop < start_ns {
            return Err(ScenarioError::schema(
                path.field("stop_ns"),
                format!("stop ({stop}) precedes start ({start_ns})"),
            ));
        }
    }
    let seed = match get(gf, "seed") {
        Some(v) => u64_of(v, path.field("seed"))?,
        None => index as u64,
    };
    let mut args = Vec::new();
    if let Some(list) = get(gf, "args") {
        let apath = path.field("args");
        for (k, a) in arr(list, apath)?.iter().enumerate() {
            args.push(arg_dist_of(a, apath.index(k))?);
        }
    }
    let mut phases = Vec::new();
    if let Some(list) = get(gf, "phases") {
        let phases_path = path.field("phases");
        for (k, p) in arr(list, phases_path)?.iter().enumerate() {
            let ppath = phases_path.index(k);
            let pf = obj(p, ppath)?;
            check_keys(pf, &["at_ns", "rate_eps", "interval_ns"], ppath)?;
            let at_ns = u64_of(req(pf, "at_ns", ppath)?, ppath.field("at_ns"))?;
            let interval_ns = interval_of(pf, ppath)?;
            phases.push(Phase { at_ns, interval_ns });
        }
        for w in phases.windows(2) {
            if w[1].at_ns <= w[0].at_ns {
                return Err(ScenarioError::schema(
                    phases_path,
                    "phases must be strictly increasing in `at_ns`",
                ));
            }
        }
    }
    Ok(GenSpec {
        name,
        event,
        switches,
        interval_ns,
        jitter_ns,
        start_ns,
        stop_ns,
        count,
        seed,
        args,
        phases,
    })
}

fn arg_dist_of(j: &json::Json, path: Loc<'_>) -> Result<ArgDist, ScenarioError> {
    match j {
        json::Json::Num(_) => Ok(ArgDist::Const(u64_of(j, path)?)),
        json::Json::Obj(fields) => {
            check_keys(fields, &["const", "uniform", "zipf", "seq"], path)?;
            if fields.len() != 1 {
                return Err(ScenarioError::schema(
                    path,
                    "an argument distribution is exactly one of \
                     `const`, `uniform`, `zipf`, or `seq`",
                ));
            }
            let (kind, body) = &fields[0];
            match kind.as_str() {
                "const" => Ok(ArgDist::Const(u64_of(body, path.field("const"))?)),
                "uniform" => {
                    let upath = path.field("uniform");
                    let (lo, hi) = match body {
                        // Compact form: "uniform": [lo, hi].
                        json::Json::Arr(items) if items.len() == 2 => (
                            u64_of(&items[0], upath.index(0))?,
                            u64_of(&items[1], upath.index(1))?,
                        ),
                        json::Json::Obj(uf) => {
                            check_keys(uf, &["lo", "hi"], upath)?;
                            (
                                u64_of(req(uf, "lo", upath)?, upath.field("lo"))?,
                                u64_of(req(uf, "hi", upath)?, upath.field("hi"))?,
                            )
                        }
                        _ => {
                            return Err(ScenarioError::schema(
                                upath,
                                "expected {lo, hi} or a two-element array",
                            ))
                        }
                    };
                    if lo > hi {
                        return Err(ScenarioError::schema(
                            upath,
                            format!("empty range: lo ({lo}) > hi ({hi})"),
                        ));
                    }
                    Ok(ArgDist::Uniform { lo, hi })
                }
                "zipf" => {
                    let zpath = path.field("zipf");
                    let zf = obj(body, zpath)?;
                    check_keys(zf, &["n", "s"], zpath)?;
                    let n = u64_of(req(zf, "n", zpath)?, zpath.field("n"))?;
                    if n == 0 {
                        return Err(ScenarioError::schema(
                            zpath.field("n"),
                            "zipf needs at least one key",
                        ));
                    }
                    let s = match get(zf, "s") {
                        Some(v) => f64_of(v, zpath.field("s"))?,
                        None => 1.0,
                    };
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(ScenarioError::schema(
                            zpath.field("s"),
                            format!("the exponent must be positive and finite, got {s}"),
                        ));
                    }
                    Ok(ArgDist::Zipf { n, s })
                }
                "seq" => {
                    let n = u64_of(body, path.field("seq"))?;
                    if n == 0 {
                        return Err(ScenarioError::schema(
                            path.field("seq"),
                            "seq needs a nonzero modulus",
                        ));
                    }
                    Ok(ArgDist::Seq { n })
                }
                _ => unreachable!("check_keys filtered"),
            }
        }
        other => Err(ScenarioError::schema(
            path,
            format!(
                "expected a constant or a distribution object, found {}",
                other.kind()
            ),
        )),
    }
}

// -------------------------------------------------------- JSON accessors

/// A field path such as `$.events[3].args[0]`, built as a chain of
/// borrowed segments on the stack. It is rendered (through `Display`)
/// only when an error names it, so walking a large document formats no
/// path strings on the success path.
#[derive(Clone, Copy)]
pub(crate) enum Loc<'a> {
    /// A literal path (`$`, `$.events`, ...).
    Root(&'a str),
    /// `parent.key`
    Field(&'a Loc<'a>, &'a str),
    /// `parent[i]`
    Index(&'a Loc<'a>, usize),
}

impl<'a> Loc<'a> {
    pub(crate) fn field(&'a self, key: &'a str) -> Loc<'a> {
        Loc::Field(self, key)
    }

    pub(crate) fn index(&'a self, i: usize) -> Loc<'a> {
        Loc::Index(self, i)
    }
}

impl fmt::Display for Loc<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Loc::Root(path) => f.write_str(path),
            Loc::Field(parent, key) => write!(f, "{parent}.{key}"),
            Loc::Index(parent, i) => write!(f, "{parent}[{i}]"),
        }
    }
}

pub(crate) fn obj(
    j: &json::Json,
    path: impl fmt::Display,
) -> Result<&[(String, json::Json)], ScenarioError> {
    match j {
        json::Json::Obj(fields) => Ok(fields),
        other => Err(ScenarioError::schema(
            path,
            format!("expected an object, found {}", other.kind()),
        )),
    }
}

pub(crate) fn arr(j: &json::Json, path: impl fmt::Display) -> Result<&[json::Json], ScenarioError> {
    match j {
        json::Json::Arr(items) => Ok(items),
        other => Err(ScenarioError::schema(
            path,
            format!("expected an array, found {}", other.kind()),
        )),
    }
}

/// The value of `key`; the first occurrence wins when a key repeats.
pub(crate) fn get<'a>(fields: &'a [(String, json::Json)], key: &str) -> Option<&'a json::Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

pub(crate) fn req<'a>(
    fields: &'a [(String, json::Json)],
    key: &str,
    path: impl fmt::Display,
) -> Result<&'a json::Json, ScenarioError> {
    get(fields, key)
        .ok_or_else(|| ScenarioError::schema(path, format!("missing required field `{key}`")))
}

pub(crate) fn str_of(j: &json::Json, path: impl fmt::Display) -> Result<&str, ScenarioError> {
    match j {
        json::Json::Str(s) => Ok(s),
        other => Err(ScenarioError::schema(
            path,
            format!("expected a string, found {}", other.kind()),
        )),
    }
}

pub(crate) fn u64_of(j: &json::Json, path: impl fmt::Display) -> Result<u64, ScenarioError> {
    match j {
        json::Json::Num(n) => {
            if *n < 0.0 || n.fract() != 0.0 || *n > 9_007_199_254_740_992.0 {
                Err(ScenarioError::schema(
                    path,
                    format!("expected a non-negative integer, found {n}"),
                ))
            } else {
                Ok(*n as u64)
            }
        }
        other => Err(ScenarioError::schema(
            path,
            format!("expected a number, found {}", other.kind()),
        )),
    }
}

fn f64_of(j: &json::Json, path: impl fmt::Display) -> Result<f64, ScenarioError> {
    match j {
        json::Json::Num(n) => Ok(*n),
        other => Err(ScenarioError::schema(
            path,
            format!("expected a number, found {}", other.kind()),
        )),
    }
}

/// Refuse a world whose arrays, copied onto each of `switches` shards,
/// would hold more than [`MAX_CELLS`] cells, naming the array that
/// crosses the budget. Pure arithmetic: nothing is allocated.
pub(crate) fn check_cell_budget(
    prog: &CheckedProgram,
    switches: usize,
) -> Result<(), ScenarioError> {
    let n = switches as u128;
    let mut per_switch: u128 = 0;
    for g in &prog.info.globals {
        per_switch += u128::from(g.len);
        let total = per_switch * n;
        if total > u128::from(MAX_CELLS) {
            return Err(ScenarioError::validate(
                "$.net.switches",
                format!(
                    "array `{}` takes the world to {total} cells ({per_switch} per switch \
                     × {n} switch(es)), over the budget of {MAX_CELLS} cells",
                    g.name
                ),
            ));
        }
    }
    Ok(())
}

/// The structured refusal of a topology over [`MAX_SWITCHES`].
fn too_many_switches(n: u64) -> ScenarioError {
    ScenarioError::schema(
        "$.net.switches",
        format!("{n} switches exceeds the limit of {MAX_SWITCHES}"),
    )
}

pub(crate) fn check_keys(
    fields: &[(String, json::Json)],
    allowed: &[&str],
    path: impl fmt::Display,
) -> Result<(), ScenarioError> {
    for (k, _) in fields {
        if !allowed.contains(&k.as_str()) {
            return Err(ScenarioError::schema(
                path,
                format!(
                    "unknown field `{k}` (expected one of: {})",
                    allowed.join(", ")
                ),
            ));
        }
    }
    Ok(())
}

// ------------------------------------------------------------- mini-JSON

/// A minimal JSON reader. The workspace builds offline (no serde), and
/// scenarios only need objects/arrays/strings/numbers/bools, so a small
/// recursive-descent parser with line/column errors is all it takes.
pub mod json {
    use super::ScenarioError;

    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        /// Field order is preserved (useful for error paths).
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        pub fn kind(&self) -> &'static str {
            match self {
                Json::Null => "null",
                Json::Bool(_) => "a bool",
                Json::Num(_) => "a number",
                Json::Str(_) => "a string",
                Json::Arr(_) => "an array",
                Json::Obj(_) => "an object",
            }
        }
    }

    /// How deeply arrays and objects may nest. The parser recurses once
    /// per level, so without a bound a line of `[`s overflows the stack;
    /// no scenario or request needs more than a handful of levels.
    pub const MAX_DEPTH: usize = 128;

    pub fn parse(src: &str) -> Result<Json, ScenarioError> {
        let mut p = Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    struct Parser<'a> {
        src: &'a str,
        /// `src` as bytes: the grammar is ASCII, so the parser steps
        /// bytewise and only slices `src` at ASCII delimiters.
        bytes: &'a [u8],
        pos: usize,
        /// Arrays and objects currently open.
        depth: usize,
    }

    impl Parser<'_> {
        fn err(&self, msg: impl Into<String>) -> ScenarioError {
            let mut line = 1;
            let mut col = 1;
            for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
                if b == b'\n' {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
            }
            ScenarioError::Json {
                line,
                col,
                msg: msg.into(),
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), ScenarioError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(format!("expected `{}`", b as char)))
            }
        }

        fn value(&mut self) -> Result<Json, ScenarioError> {
            match self.peek() {
                Some(open @ (b'{' | b'[')) => {
                    if self.depth == MAX_DEPTH {
                        return Err(self.err(format!("nested deeper than {MAX_DEPTH} levels")));
                    }
                    self.depth += 1;
                    let v = if open == b'{' {
                        self.object()
                    } else {
                        self.array()
                    };
                    self.depth -= 1;
                    v
                }
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'n') => self.literal("null", Json::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
                Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
                None => Err(self.err("unexpected end of input")),
            }
        }

        fn literal(&mut self, word: &str, v: Json) -> Result<Json, ScenarioError> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                Err(self.err(format!("expected `{word}`")))
            }
        }

        fn object(&mut self) -> Result<Json, ScenarioError> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let val = self.value()?;
                fields.push((key, val));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(self.err("expected `,` or `}` in object")),
                }
            }
        }

        fn array(&mut self) -> Result<Json, ScenarioError> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(self.err("expected `,` or `]` in array")),
                }
            }
        }

        fn string(&mut self) -> Result<String, ScenarioError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                // Copy the whole run up to the next `"` or `\` at once.
                // Both delimiters are ASCII, so the run ends on a char
                // boundary of `src` and needs no re-validation.
                let run = self.bytes[self.pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(self.bytes.len() - self.pos);
                out.push_str(&self.src[self.pos..self.pos + run]);
                self.pos += run;
                match self.peek() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(_) => {
                        // A `\`: decode one escape sequence.
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                if self.pos + 5 > self.bytes.len() {
                                    return Err(self.err("truncated \\u escape"));
                                }
                                let unit = self
                                    .hex4(self.pos + 1)
                                    .ok_or_else(|| self.err("bad \\u escape"))?;
                                self.pos += 4;
                                out.push(self.utf16_char(unit).unwrap_or('\u{fffd}'));
                            }
                            _ => return Err(self.err("bad escape sequence")),
                        }
                        self.pos += 1;
                    }
                }
            }
        }

        /// The four hex digits at `at`, if they are there.
        fn hex4(&self, at: usize) -> Option<u32> {
            let digits = self.bytes.get(at..at + 4)?;
            u32::from_str_radix(std::str::from_utf8(digits).ok()?, 16).ok()
        }

        /// The character a `\u` escape's UTF-16 code `unit` stands for,
        /// with `pos` on the escape's last hex digit. A high surrogate
        /// directly followed by a `\u` low surrogate combines with it
        /// (consuming the second escape); a lone surrogate is `None`.
        fn utf16_char(&mut self, unit: u32) -> Option<char> {
            if !(0xD800..0xDC00).contains(&unit) {
                return char::from_u32(unit);
            }
            if self.bytes.get(self.pos + 1..self.pos + 3) != Some(b"\\u") {
                return None;
            }
            let low = self.hex4(self.pos + 3)?;
            if !(0xDC00..0xE000).contains(&low) {
                return None;
            }
            self.pos += 6;
            char::from_u32(0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00))
        }

        fn number(&mut self) -> Result<Json, ScenarioError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.peek() == Some(b'.') {
                self.pos += 1;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits");
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| self.err(format!("bad number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucid_check::parse_and_check;

    const COUNTER: &str = r#"
        global cts = new Array<<32>>(8);
        memop plus(int m, int x) { return m + x; }
        event pkt(int idx);
        event done();
        handle pkt(int idx) { Array.setm(cts, idx, plus, 1); }
    "#;

    fn prog() -> CheckedProgram {
        parse_and_check(COUNTER).expect("counter checks")
    }

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        let j = json::parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\n\"y\""}, "d": true}"#).unwrap();
        let json::Json::Obj(fields) = &j else {
            panic!()
        };
        assert_eq!(fields.len(), 3);
        let json::Json::Arr(items) = &fields[0].1 else {
            panic!()
        };
        assert_eq!(items[1], json::Json::Num(2.5));
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_replaced() {
        let s = |doc: &str| match json::parse(doc).unwrap() {
            json::Json::Str(s) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(s(r#""\ud83d\ude00""#), "\u{1f600}");
        assert_eq!(s(r#""a\uD83D\uDE00b""#), "a\u{1f600}b");
        // A lone high surrogate, a lone low one, and a high one followed
        // by an escape that is not a low surrogate (which then decodes
        // on its own) each stand for U+FFFD.
        assert_eq!(s(r#""a\ud83db""#), "a\u{fffd}b");
        assert_eq!(s(r#""\ud83d""#), "\u{fffd}");
        assert_eq!(s(r#""a\ude00b""#), "a\u{fffd}b");
        assert_eq!(s(r#""\ud83d\u0041""#), "\u{fffd}A");
        assert_eq!(s(r#""\ud83d\ud83d\ude00""#), "\u{fffd}\u{1f600}");
    }

    #[test]
    fn json_parse_is_linear_in_document_size() {
        // Completion is the assertion: a parser that rescans the rest of
        // the document per character takes hours on this input.
        let unit = r#"ab\"c\\d \u00e9 \ud83d\ude00 h\u00e9llo w\u00f6rld "#;
        let decoded = "ab\"c\\d \u{e9} \u{1f600} h\u{e9}llo w\u{f6}rld ";
        let reps = (4 << 20) / unit.len() + 1;
        let list: Vec<String> = (0..150_000).map(|i| format!("\"s{i}\"")).collect();
        let doc = format!(
            r#"{{"big": "{}", "list": [{}]}}"#,
            unit.repeat(reps),
            list.join(",")
        );
        assert!(doc.len() > (5 << 20), "{}", doc.len());
        let j = json::parse(&doc).unwrap();
        let json::Json::Obj(fields) = &j else {
            panic!()
        };
        assert_eq!(fields[0].1, json::Json::Str(decoded.repeat(reps)));
        let json::Json::Arr(items) = &fields[1].1 else {
            panic!()
        };
        assert_eq!(items.len(), 150_000);
        assert_eq!(items[149_999], json::Json::Str("s149999".to_string()));
    }

    #[test]
    fn scenario_load_is_linear_in_event_count() {
        let events: Vec<String> = (0..60_000u64)
            .map(|i| {
                format!(
                    r#"{{"time_ns":{},"switch":{},"event":"pkt","args":[{}]}}"#,
                    100 * (i + 1),
                    1 + i % 4,
                    i % 8
                )
            })
            .collect();
        let doc = format!(
            r#"{{"name":"big","net":{{"switches":4}},"events":[{}]}}"#,
            events.join(",")
        );
        let sc = Scenario::from_json(&doc).unwrap();
        assert_eq!(sc.events.len(), 60_000);
        assert_eq!(
            sc.events[59_999],
            Injection {
                time_ns: 6_000_000,
                switch: 4,
                event: "pkt".to_string(),
                args: vec![7],
            }
        );
        sc.validate(&prog()).unwrap();
    }

    #[test]
    fn error_paths_and_messages_are_pinned() {
        let p = prog();
        let cases = [
            (
                r#"{"events":[{"time_ns":1,"switch":1,"event":"pkt","args":[1,-2]}]}"#,
                "scenario schema error at `$.events[0].args[1]`: \
                 expected a non-negative integer, found -2",
            ),
            (
                r#"{"events":[{"time_ns":1,"switch":1,"event":"pkt"},{"switch":1,"event":"pkt"}]}"#,
                "scenario schema error at `$.events[1]`: missing required field `time_ns`",
            ),
            (
                r#"{"events":[{"time_ns":1,"switch":1,"event":"pkt","argz":[]}]}"#,
                "scenario schema error at `$.events[0]`: unknown field `argz` \
                 (expected one of: time_ns, switch, event, args)",
            ),
            (
                r#"{"events":[{"time_ns":1,"switch":1,"event":"pkt","args":{}}]}"#,
                "scenario schema error at `$.events[0].args`: expected an array, found an object",
            ),
            (
                r#"{"expect":{"arrays":[{"switch":1,"array":"cts","values":[1,true]}]}}"#,
                "scenario schema error at `$.expect.arrays[0].values[1]`: \
                 expected a number, found a bool",
            ),
            (
                r#"{"expect":{"per_event":{"pkt":-1}}}"#,
                "scenario schema error at `$.expect.per_event.pkt`: \
                 expected a non-negative integer, found -1",
            ),
            (
                r#"{"net":{"switches":[1,"two"]}}"#,
                "scenario schema error at `$.net.switches[1]`: expected a number, found a string",
            ),
            (
                r#"{"generators":[{"event":"pkt","rate_eps":1,"count":1,
                    "args":[{"uniform":{"lo":1,"hi":"x"}}]}]}"#,
                "scenario schema error at `$.generators[0].args[0].uniform.hi`: \
                 expected a number, found a string",
            ),
            (
                r#"{"generators":[{"event":"pkt","rate_eps":1,"count":1,
                    "phases":[{"at_ns":5,"rate_eps":0}]}]}"#,
                "scenario schema error at `$.generators[0].phases[0].rate_eps`: \
                 rate must be at least 1 event per second",
            ),
            (
                r#"{"events":[{"time_ns":1,"switch":1,"event":"pkt","args":[1]},
                    {"time_ns":1,"switch":9,"event":"pkt","args":[1]}]}"#,
                "scenario does not fit the program at `$.events[1].switch`: \
                 switch 9 is not in the topology",
            ),
            (
                r#"{"generators":[{"event":"pkt","switches":[1,7],"rate_eps":1,"count":1,
                    "args":[1]}]}"#,
                "scenario does not fit the program at `$.generators[0].switches[1]`: \
                 switch 7 is not in the topology",
            ),
            (
                r#"{"expect":{"per_event":{"nope":1}}}"#,
                "scenario does not fit the program at `$.expect.per_event.nope`: \
                 no event named `nope`",
            ),
            (
                r#"{"name":"abc"#,
                "scenario is not valid JSON (line 1, col 13): unterminated string",
            ),
            (
                r#"{"name":"a\u12"}"#,
                "scenario is not valid JSON (line 1, col 12): bad \\u escape",
            ),
        ];
        for (doc, want) in cases {
            let err = Scenario::from_json(doc)
                .and_then(|sc| sc.validate(&p))
                .unwrap_err();
            assert_eq!(err.to_string(), want, "{doc}");
        }
    }

    #[test]
    fn malformed_json_reports_position() {
        let err = Scenario::from_json("{\n  \"name\": \"x\",\n  oops\n}").unwrap_err();
        let ScenarioError::Json { line, col, .. } = err else {
            panic!("want Json error, got {err:?}")
        };
        assert_eq!(line, 3);
        assert!(col >= 3, "col {col}");
    }

    #[test]
    fn unknown_field_is_a_schema_error_with_path() {
        let err = Scenario::from_json(r#"{"net": {"switchez": 3}}"#).unwrap_err();
        let ScenarioError::Schema { path, msg } = err else {
            panic!()
        };
        assert_eq!(path, "$.net");
        assert!(msg.contains("switchez"), "{msg}");
    }

    #[test]
    fn minimal_scenario_defaults() {
        let sc = Scenario::from_json(r#"{"name": "t"}"#).unwrap();
        assert_eq!(sc.switches, vec![1]);
        assert_eq!(sc.link_latency_ns, 1_000);
        assert_eq!(sc.max_events, 1_000_000);
        assert_eq!(sc.max_time_ns, u64::MAX);
    }

    #[test]
    fn mesh_shorthand_and_engine_object() {
        let sc = Scenario::from_json(r#"{"net": {"switches": 4}}"#).unwrap();
        assert_eq!(sc.switches, vec![1, 2, 3, 4]);
        // There is one engine, so there is no `engine` key: every form
        // of it is an unknown field.
        for engine in [
            r#"{"kind": "sharded", "workers": 2, "epoch_ns": 500}"#,
            r#""sharded""#,
            r#""sequential""#,
        ] {
            let doc = format!(r#"{{"net": {{"switches": 4}}, "engine": {engine}}}"#);
            let err = Scenario::from_json(&doc).unwrap_err();
            let ScenarioError::Schema { path, msg } = err else {
                panic!("{engine}: {err:?}")
            };
            assert_eq!(path, "$");
            assert!(msg.contains("unknown field `engine`"), "{msg}");
        }
    }

    #[test]
    fn oversized_mesh_is_refused_before_allocating() {
        let max = MAX_SWITCHES;
        let sc = Scenario::from_json(&format!(r#"{{"net": {{"switches": {max}}}}}"#)).unwrap();
        assert_eq!(sc.switches.len() as u64, max);
        for n in [max + 1, 9_007_199_254_740_992] {
            let err =
                Scenario::from_json(&format!(r#"{{"net": {{"switches": {n}}}}}"#)).unwrap_err();
            let ScenarioError::Schema { path, msg } = err else {
                panic!("{n}: {err:?}")
            };
            assert_eq!(path, "$.net.switches");
            assert!(msg.contains("exceeds the limit"), "{msg}");
        }
        let ids: Vec<String> = (1..=max + 1).map(|i| i.to_string()).collect();
        let doc = format!(r#"{{"net": {{"switches": [{}]}}}}"#, ids.join(","));
        let err = Scenario::from_json(&doc).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Schema { path, .. } if path == "$.net.switches"),
            "{err:?}"
        );
    }

    #[test]
    fn over_budget_arrays_are_refused_before_allocating() {
        let prog = |len: u64| {
            lucid_check::parse_and_check(&format!(
                "global small = new Array<<32>>(16);\n\
                 global cts = new Array<<32>>({len});\n\
                 event pkt(int i);\n\
                 handle pkt(int i) {{ Array.set(cts, i, 1); }}\n"
            ))
            .expect("checks")
        };
        let one = r#"{"events": [{"time_ns": 0, "switch": 1, "event": "pkt", "args": [3]}]}"#;
        let one = Scenario::from_json(one).unwrap();
        let mesh = Scenario::from_json(r#"{"net": {"switches": 1024}}"#).unwrap();
        // Exactly at the budget fits (only validated here, never built).
        let at = MAX_CELLS / 1024 - 16;
        mesh.validate(&prog(at)).expect("at the budget");
        for (sc, len) in [(&mesh, at + 1), (&one, 4_000_000_000), (&one, u64::MAX / 2)] {
            // Running the world would allocate it; the refusal comes first.
            let err = run_scenario_with(&prog(len), sc, &SimOptions::default()).unwrap_err();
            let SimRunError::Scenario(ScenarioError::Validate { path, msg }) = err else {
                panic!("{len}: {err:?}")
            };
            assert_eq!(path, "$.net.switches");
            assert!(msg.contains("array `cts`"), "{msg}");
            assert!(
                msg.contains(&format!("budget of {MAX_CELLS} cells")),
                "{msg}"
            );
        }
    }

    #[test]
    fn deep_nesting_is_a_structured_json_error() {
        // Within the limit parses; one level past it is a positioned
        // syntax error, and a 200k-deep document never recurses that far.
        let ok = format!(
            "{}{}",
            "[".repeat(json::MAX_DEPTH),
            "]".repeat(json::MAX_DEPTH)
        );
        assert!(json::parse(&ok).is_ok());
        for depth in [json::MAX_DEPTH + 1, 200_000] {
            let doc = format!(r#"{{"events": {}}}"#, "[".repeat(depth));
            let err = Scenario::from_json(&doc).unwrap_err();
            let ScenarioError::Json { line, col, msg } = err else {
                panic!("{depth}: {err:?}")
            };
            assert_eq!(line, 1);
            assert_eq!(col, 11 + json::MAX_DEPTH);
            assert!(msg.contains("nested deeper than"), "{msg}");
        }
    }

    #[test]
    fn unknown_event_name_is_structured() {
        let sc = Scenario::from_json(
            r#"{"events": [{"time_ns": 0, "switch": 1, "event": "nope", "args": []}]}"#,
        )
        .unwrap();
        let err = sc.validate(&prog()).unwrap_err();
        let ScenarioError::Validate { path, msg } = err else {
            panic!()
        };
        assert_eq!(path, "$.events[0].event");
        assert!(msg.contains("nope"), "{msg}");
    }

    #[test]
    fn out_of_range_switch_id_is_structured() {
        let sc = Scenario::from_json(
            r#"{"net": {"switches": 2},
                "events": [{"time_ns": 0, "switch": 7, "event": "pkt", "args": [1]}]}"#,
        )
        .unwrap();
        let err = sc.validate(&prog()).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Validate { path, .. } if path == "$.events[0].switch"),
            "{err:?}"
        );
    }

    #[test]
    fn bad_arity_and_bad_index_are_structured() {
        let sc = Scenario::from_json(
            r#"{"events": [{"time_ns": 0, "switch": 1, "event": "pkt", "args": [1, 2]}]}"#,
        )
        .unwrap();
        assert!(matches!(
            sc.validate(&prog()).unwrap_err(),
            ScenarioError::Validate { .. }
        ));
        let sc = Scenario::from_json(
            r#"{"init": [{"switch": 1, "array": "cts", "index": 99, "value": 1}]}"#,
        )
        .unwrap();
        let err = sc.validate(&prog()).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Validate { path, .. } if path == "$.init[0].index"),
            "{err:?}"
        );
    }

    #[test]
    fn run_reports_structured_mismatches() {
        let p = prog();
        let sc = Scenario::from_json(
            r#"{"name": "count",
                "events": [{"time_ns": 0, "switch": 1, "event": "pkt", "args": [3]},
                           {"time_ns": 100, "switch": 1, "event": "pkt", "args": [3]}],
                "expect": {"handled": 2,
                           "per_event": {"done": 1},
                           "arrays": [{"switch": 1, "array": "cts", "index": 3, "value": 9}]}}"#,
        )
        .unwrap();
        let report = run_scenario(&p, &sc, None).unwrap();
        assert!(!report.passed());
        assert_eq!(report.mismatches.len(), 2, "{:?}", report.mismatches);
        assert!(report.mismatches.contains(&Mismatch::Array {
            switch: 1,
            array: "cts".into(),
            index: 3,
            want: 9,
            got: 2
        }));
        assert!(report.mismatches.contains(&Mismatch::Count {
            what: "event:done".into(),
            want: 1,
            got: 0
        }));
        let j = report.to_json();
        assert!(j.contains("\"ok\":false"), "{j}");
        assert!(j.contains("\"kind\":\"array\""), "{j}");
    }

    #[test]
    fn passing_scenario_has_empty_mismatches() {
        let p = prog();
        let sc = Scenario::from_json(
            r#"{"name": "count",
                "init": [{"switch": 1, "array": "cts", "index": 0, "value": 5}],
                "events": [{"time_ns": 0, "switch": 1, "event": "pkt", "args": [3]}],
                "expect": {"handled": 1,
                           "arrays": [{"switch": 1, "array": "cts", "values": [5,0,0,1,0,0,0,0]}]}}"#,
        )
        .unwrap();
        let report = run_scenario(&p, &sc, None).unwrap();
        assert!(report.passed(), "{:?}", report.mismatches);
        assert!(report.to_json().contains("\"ok\":true"));
    }

    #[test]
    fn failure_schedule_drops_and_recovers() {
        let p = prog();
        let sc = Scenario::from_json(
            r#"{"name": "fail",
                "net": {"switches": 2},
                "events": [{"time_ns": 0,    "switch": 2, "event": "pkt", "args": [1]},
                           {"time_ns": 2000, "switch": 2, "event": "pkt", "args": [1]},
                           {"time_ns": 9000, "switch": 2, "event": "pkt", "args": [2]}],
                "failures": [{"time_ns": 1000, "switch": 2, "action": "fail"},
                             {"time_ns": 5000, "switch": 2, "action": "recover"}],
                "expect": {"handled": 2, "dropped": 1,
                           "arrays": [{"switch": 2, "array": "cts", "index": 1, "value": 0},
                                      {"switch": 2, "array": "cts", "index": 2, "value": 1}]}}"#,
        )
        .unwrap();
        let report = run_scenario(&p, &sc, None).unwrap();
        assert!(report.passed(), "{:?}", report.mismatches);
    }

    #[test]
    fn exec_override_and_field_select_bytecode() {
        let p = prog();
        let sc = Scenario::from_json(
            r#"{"name": "bc", "exec": "bytecode",
                "events": [{"time_ns": 0, "switch": 1, "event": "pkt", "args": [3]}],
                "expect": {"arrays": [{"switch": 1, "array": "cts", "index": 3, "value": 1}]}}"#,
        )
        .unwrap();
        assert_eq!(sc.exec, ExecMode::Bytecode);
        let bc = run_scenario(&p, &sc, None).unwrap();
        assert_eq!(bc.exec, "bytecode");
        assert!(bc.passed(), "{:?}", bc.mismatches);
        assert!(bc.to_json().contains("\"exec\":\"bytecode\""));
        let ast = run_scenario(&p, &sc, Some(ExecMode::Ast)).unwrap();
        assert_eq!(ast.exec, "ast");
        assert_eq!(ast.state_digest, bc.state_digest);
        assert_eq!(ast.stats, bc.stats);

        let err = Scenario::from_json(r#"{"exec": "jit"}"#).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Schema { path, .. } if path == "$.exec"),
            "{err:?}"
        );
    }

    #[test]
    fn opt_field_and_override_select_the_level() {
        // Unspecified: the full pipeline.
        let sc = Scenario::from_json(r#"{"name": "d"}"#).unwrap();
        assert_eq!(sc.opt, OptLevel::O2);
        // Authored level flows into the config and the report.
        let sc = Scenario::from_json(
            r#"{"name": "o1", "exec": "bytecode", "opt": 1,
                "events": [{"time_ns": 0, "switch": 1, "event": "pkt", "args": [3]}]}"#,
        )
        .unwrap();
        assert_eq!(sc.opt, OptLevel::O1);
        assert_eq!(sc.net_config(None, None).opt, OptLevel::O1);
        let report = run_scenario(&prog(), &sc, None).unwrap();
        assert_eq!(report.opt, "1");
        assert!(
            report.to_json().contains("\"opt\":1"),
            "{}",
            report.to_json()
        );
        // The CLI override wins.
        let report = run_scenario_with(
            &prog(),
            &sc,
            &SimOptions {
                opt: Some(OptLevel::O0),
                ..SimOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.opt, "0");
        // Out-of-range and non-numeric levels are schema errors at $.opt.
        for bad in [r#"{"opt": 3}"#, r#"{"opt": "two"}"#] {
            let err = Scenario::from_json(bad).unwrap_err();
            assert!(
                matches!(&err, ScenarioError::Schema { path, .. } if path == "$.opt"),
                "{err:?}"
            );
        }
    }

    #[test]
    fn oversized_init_value_is_a_structured_error() {
        // Silent masking used to hide this; now the loader points at the
        // exact field.
        let sc = Scenario::from_json(
            r#"{"init": [{"switch": 1, "array": "cts", "index": 0, "value": 4294967296}]}"#,
        )
        .unwrap();
        let err = sc.validate(&prog()).unwrap_err();
        let ScenarioError::Validate { path, msg } = &err else {
            panic!("want Validate, got {err:?}")
        };
        assert_eq!(path, "$.init[0].value");
        assert!(msg.contains("32-bit"), "{msg}");
        // The maximum representable value is still fine.
        let sc = Scenario::from_json(
            r#"{"init": [{"switch": 1, "array": "cts", "index": 0, "value": 4294967295}]}"#,
        )
        .unwrap();
        sc.validate(&prog()).unwrap();
    }

    #[test]
    fn generator_schema_errors_carry_paths() {
        for (body, want_path, want_msg) in [
            (
                r#"{"generators": [{"event": "pkt", "count": 5}]}"#,
                "$.generators[0]",
                "rate",
            ),
            (
                r#"{"generators": [{"event": "pkt", "rate_eps": 100}]}"#,
                "$.generators[0]",
                "unbounded",
            ),
            (
                r#"{"generators": [{"event": "pkt", "rate_eps": 100, "interval_ns": 5, "count": 1}]}"#,
                "$.generators[0]",
                "not both",
            ),
            (
                r#"{"generators": [{"event": "pkt", "rate_eps": 100, "count": 1,
                    "args": [{"uniform": [9, 2]}]}]}"#,
                "$.generators[0].args[0].uniform",
                "empty range",
            ),
            (
                r#"{"generators": [{"event": "pkt", "rate_eps": 100, "count": 1,
                    "args": [{"zipf": {"n": 0}}]}]}"#,
                "$.generators[0].args[0].zipf.n",
                "at least one",
            ),
            (
                r#"{"generators": [{"name": "a", "event": "pkt", "rate_eps": 1, "count": 1},
                                   {"name": "a", "event": "pkt", "rate_eps": 1, "count": 1}]}"#,
                "$.generators[1].name",
                "duplicate",
            ),
            (
                r#"{"generators": [{"event": "pkt", "rate_eps": 100, "count": 1,
                    "phases": [{"at_ns": 5, "rate_eps": 1}, {"at_ns": 5, "rate_eps": 2}]}]}"#,
                "$.generators[0].phases",
                "strictly increasing",
            ),
        ] {
            let err = Scenario::from_json(body).unwrap_err();
            let ScenarioError::Schema { path, msg } = &err else {
                panic!("{body}: want Schema, got {err:?}")
            };
            assert_eq!(path, want_path, "{body}: {msg}");
            assert!(msg.contains(want_msg), "{body}: {msg}");
        }
    }

    #[test]
    fn generator_validation_resolves_against_the_program() {
        // Unknown event.
        let sc = Scenario::from_json(
            r#"{"generators": [{"event": "nope", "rate_eps": 10, "count": 1}]}"#,
        )
        .unwrap();
        let err = sc.validate(&prog()).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Validate { path, .. } if path == "$.generators[0].event"),
            "{err:?}"
        );
        // Wrong arity.
        let sc = Scenario::from_json(
            r#"{"generators": [{"event": "pkt", "rate_eps": 10, "count": 1, "args": [1, 2]}]}"#,
        )
        .unwrap();
        let err = sc.validate(&prog()).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Validate { path, .. } if path == "$.generators[0].args"),
            "{err:?}"
        );
        // Switch outside the topology.
        let sc = Scenario::from_json(
            r#"{"generators": [{"event": "pkt", "switch": 9, "rate_eps": 10,
                                "count": 1, "args": [1]}]}"#,
        )
        .unwrap();
        let err = sc.validate(&prog()).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Validate { path, .. } if path == "$.generators[0].switch"),
            "{err:?}"
        );
    }

    #[test]
    fn generator_scenario_runs_and_reports_per_source_counts() {
        let p = prog();
        let sc = Scenario::from_json(
            r#"{"name": "gen",
                "seed": 3,
                "generators": [
                  {"name": "hot", "event": "pkt", "rate_eps": 1000000, "count": 120,
                   "args": [{"zipf": {"n": 8, "s": 1.3}}]},
                  {"name": "sweep", "event": "pkt", "rate_eps": 500000, "count": 80,
                   "args": [{"seq": 8}]}],
                "expect": {"handled": 200, "per_event": {"pkt": 200}}}"#,
        )
        .unwrap();
        let report = run_scenario(&p, &sc, None).unwrap();
        assert!(report.passed(), "{:?}", report.mismatches);
        assert_eq!(
            report.gens,
            vec![("hot".to_string(), 120), ("sweep".to_string(), 80)]
        );
        let j = report.to_json();
        assert!(j.contains("\"name\":\"hot\",\"injected\":120"), "{j}");
        assert!(report.render().contains("generators: hot=120, sweep=80"));
        // Injections arrived exactly once each through the lazy path.
        let injected: u64 = report.gens.iter().map(|(_, n)| n).sum();
        assert_eq!(injected, report.stats.processed);
    }

    #[test]
    fn workload_overrides_scale_reseed_and_skip_expectations() {
        let p = prog();
        let sc = Scenario::from_json(
            r#"{"name": "gen",
                "generators": [
                  {"name": "a", "event": "pkt", "rate_eps": 1000000, "count": 30,
                   "args": [{"uniform": [0, 7]}]},
                  {"name": "b", "event": "pkt", "rate_eps": 1000000, "count": 10,
                   "args": [{"uniform": [0, 7]}]}],
                "expect": {"handled": 40}}"#,
        )
        .unwrap();
        // --events below the authored total: the stream stops early.
        let capped = run_scenario_with(
            &p,
            &sc,
            &SimOptions {
                events: Some(12),
                ..SimOptions::default()
            },
        )
        .unwrap();
        assert_eq!(capped.stats.handled, 12);
        assert!(
            capped.passed(),
            "expectations must be skipped under --events: {:?}",
            capped.mismatches
        );
        // --events above it: counts scale proportionally (3:1 ratio kept).
        let scaled = run_scenario_with(
            &p,
            &sc,
            &SimOptions {
                events: Some(400),
                ..SimOptions::default()
            },
        )
        .unwrap();
        assert_eq!(scaled.stats.handled, 400);
        assert_eq!(scaled.gens[0].1, 300, "{:?}", scaled.gens);
        assert_eq!(scaled.gens[1].1, 100, "{:?}", scaled.gens);
        // --seed changes the stream but not the volume; expectations are
        // skipped there too.
        let reseeded = run_scenario_with(
            &p,
            &sc,
            &SimOptions {
                seed: Some(99),
                ..SimOptions::default()
            },
        )
        .unwrap();
        assert_eq!(reseeded.stats.handled, 40);
        assert!(reseeded.passed());
        let baseline = run_scenario(&p, &sc, None).unwrap();
        assert_ne!(
            baseline.state_digest, reseeded.state_digest,
            "a different seed must spread keys differently"
        );
    }

    #[test]
    fn events_scaling_skips_window_bounded_generators_but_still_hits_target() {
        // `a` is count-bounded and scales; `b` is stop_ns-bounded and
        // keeps its window. The total cap still lands exactly on target.
        let p = prog();
        let sc = Scenario::from_json(
            r#"{"generators": [
                  {"name": "a", "event": "pkt", "interval_ns": 100, "count": 50,
                   "args": [{"uniform": [0, 7]}]},
                  {"name": "b", "event": "pkt", "interval_ns": 100, "stop_ns": 100000,
                   "args": [{"uniform": [0, 7]}]}]}"#,
        )
        .unwrap();
        let report = run_scenario_with(
            &p,
            &sc,
            &SimOptions {
                events: Some(800),
                ..SimOptions::default()
            },
        )
        .unwrap();
        let injected: u64 = report.gens.iter().map(|(_, n)| n).sum();
        assert_eq!(injected, 800, "{:?}", report.gens);
        assert!(
            report.gens[0].1 > 50,
            "counted gen must scale: {:?}",
            report.gens
        );
    }

    #[test]
    fn events_target_unreachable_through_windows_is_a_loud_error() {
        // Every generator is window-bounded, so scaling cannot stretch
        // the stream to the target; the run must fail, not silently
        // deliver a smaller workload.
        let p = prog();
        let sc = Scenario::from_json(
            r#"{"generators": [{"event": "pkt", "interval_ns": 100, "stop_ns": 1000,
                                "args": [{"uniform": [0, 7]}]}]}"#,
        )
        .unwrap();
        let err = run_scenario_with(
            &p,
            &sc,
            &SimOptions {
                events: Some(500),
                ..SimOptions::default()
            },
        )
        .unwrap_err();
        let SimRunError::Scenario(ScenarioError::Validate { path, msg }) = &err else {
            panic!("want a Validate error, got {err:?}")
        };
        assert_eq!(path, "$.generators");
        assert!(msg.contains("supplied only"), "{msg}");
    }

    #[test]
    fn workload_overrides_without_generators_are_rejected() {
        let p = prog();
        let sc = Scenario::from_json(
            r#"{"events": [{"time_ns": 0, "switch": 1, "event": "pkt", "args": [1]}]}"#,
        )
        .unwrap();
        for ov in [
            SimOptions {
                events: Some(10),
                ..SimOptions::default()
            },
            SimOptions {
                seed: Some(1),
                ..SimOptions::default()
            },
        ] {
            let err = run_scenario_with(&p, &sc, &ov).unwrap_err();
            assert!(
                matches!(
                    &err,
                    SimRunError::Scenario(ScenarioError::Validate { path, .. })
                        if path == "$.generators"
                ),
                "{err:?}"
            );
        }
    }

    #[test]
    fn standalone_generator_spec_parses_for_cli_gen_flag() {
        let one = Scenario::parse_generators(
            r#"{"event": "pkt", "rate_eps": 10, "count": 3, "args": [1]}"#,
        )
        .unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].name, "gen0");
        let many = Scenario::parse_generators(
            r#"[{"event": "pkt", "rate_eps": 10, "count": 3, "args": [1]},
                {"name": "x", "event": "pkt", "interval_ns": 5, "stop_ns": 100, "args": [2]}]"#,
        )
        .unwrap();
        assert_eq!(many.len(), 2);
        assert_eq!(many[1].name, "x");
        assert!(Scenario::parse_generators("42").is_err());
    }

    #[test]
    fn runtime_fault_names_the_offending_injection() {
        let p = prog();
        let sc = Scenario::from_json(
            r#"{"name": "oob",
                "events": [{"time_ns": 40, "switch": 1, "event": "pkt", "args": [99]}]}"#,
        )
        .unwrap();
        let err = run_scenario(&p, &sc, None).unwrap_err();
        let SimRunError::Runtime(e) = err else {
            panic!("want runtime fault, got {err:?}")
        };
        let at = e.at.as_ref().expect("fault location");
        assert_eq!((at.time_ns, at.switch, at.event.as_str()), (40, 1, "pkt"));
        assert_eq!(at.origin, None, "an injected event has no origin switch");
        let msg = e.to_string();
        assert!(msg.contains("`pkt` on switch 1 at 40ns"), "{msg}");
        assert!(e.to_json().contains("\"time_ns\":40"), "{}", e.to_json());
    }
}
