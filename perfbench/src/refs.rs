//! Reference outcomes the timed runs are checked against.
//!
//! `refs.txt` pins them for the default seed (1) and one held-out seed
//! (7). Any other seed gets its reference computed once per run, outside
//! the timed window, by the AST walker — the semantics of record.

use lucid_core::SimReport;

/// What a run must reproduce: final state, latency metrics and the number
/// of processed events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ref {
    pub state_digest: u64,
    pub metrics_digest: u64,
    pub processed: u64,
}

impl Ref {
    /// The outcome a finished run reports.
    pub fn of(r: &SimReport) -> Ref {
        Ref {
            state_digest: r.state_digest,
            metrics_digest: r.metrics.digest(),
            processed: r.stats.processed,
        }
    }

    /// Compare an observed outcome; `None` when it matches.
    pub fn mismatch(&self, got: &Ref) -> Option<String> {
        (self != got).then(|| format!("expected {self:x?}, got {got:x?}"))
    }
}

const PINNED: &str = include_str!("../refs.txt");

/// The pinned reference of `workload` at `seed`, if one is recorded.
pub fn pinned(workload: &str, seed: u64, tiny: bool) -> Option<Ref> {
    let size = if tiny { "tiny" } else { "full" };
    PINNED.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        if line.starts_with('#') || f.len() != 6 {
            return None;
        }
        if f[0] != workload || f[1] != seed.to_string() || f[2] != size {
            return None;
        }
        Some(Ref {
            state_digest: u64::from_str_radix(f[3], 16).ok()?,
            metrics_digest: u64::from_str_radix(f[4], 16).ok()?,
            processed: f[5].parse().ok()?,
        })
    })
}

/// The reference for this run: pinned if recorded, otherwise computed by
/// `compute`. `wrong` flips one digest bit (the self-test's deliberate
/// mismatch).
pub fn resolve(
    workload: &str,
    seed: u64,
    tiny: bool,
    wrong: bool,
    compute: impl FnOnce() -> Result<Ref, String>,
) -> Result<Ref, String> {
    let (mut r, source) = match pinned(workload, seed, tiny) {
        Some(r) => (r, "pinned"),
        None => (compute()?, "computed"),
    };
    if wrong {
        r.state_digest ^= 1;
    }
    println!(
        "reference {workload} seed={seed} ({source}): state={:016x} metrics={:016x} processed={}",
        r.state_digest, r.metrics_digest, r.processed
    );
    Ok(r)
}
