//! Serve-layer throughput gate (not a paper figure — it benchmarks this
//! reproduction's `lucidc serve` daemon path).
//!
//! A scripted client pushes events through a live session in batched
//! `ingest` request lines, advancing the engine after every batch, then
//! drains. The measured rate is the full daemon-side cost per event:
//! request JSON parsing, scheduling, simulation, and reply rendering.
//! The one-shot reference's scenario load is timed too and reported as
//! `scenario_load_events_per_sec`, with its own floor.
//! Correctness gates first: the drained report must be byte-identical
//! (wall-clock fields aside) to a one-shot `sim` run of the same events
//! authored into a scenario — the serve path is not allowed to compute a
//! different run, only to deliver the same one incrementally. CI runs
//! `--smoke` and records the JSON in `BENCH_PR.json`.

fn main() {
    let mode = lucid_bench::BenchMode::from_args();
    // Floors hold with >= 3x headroom on a 2-core container (served
    // ~710-800k events/sec, scenario load ~460-670k events/sec). Request
    // decoding is linear in line length and no longer dominates the
    // served rate.
    let target = if mode.smoke { 60_000u64 } else { 400_000 };
    let (floor_eps, floor_load_eps) = (200_000.0, 150_000.0);
    let t = lucid_bench::serve_ingest(4, target, 1_000);
    assert!(
        t.identical,
        "served session diverged from the one-shot run — determinism bug"
    );
    assert!(
        t.events_per_sec >= floor_eps,
        "serve path sustained only {:.0} events/sec (floor {:.0})",
        t.events_per_sec,
        floor_eps
    );
    assert!(
        t.scenario_load_events_per_sec >= floor_load_eps,
        "scenario load sustained only {:.0} events/sec (floor {:.0})",
        t.scenario_load_events_per_sec,
        floor_load_eps
    );

    if mode.json {
        use lucid_bench::jsonout;
        println!(
            "{{\"figure\":\"fig_serve_ingest\",\"switches\":{},\"target_events\":{},\
             \"batch\":{},\"requests\":{},\"identical\":{},\"wall_ms\":{},\
             \"events_per_sec\":{},\"scenario_load_events_per_sec\":{},\"state_digest\":{}}}",
            t.switches,
            t.target_events,
            t.batch,
            t.requests,
            t.identical,
            jsonout::f(t.wall_ms),
            jsonout::f(t.events_per_sec),
            jsonout::f(t.scenario_load_events_per_sec),
            jsonout::s(&format!("{:016x}", t.state_digest)),
        );
        return;
    }

    println!(
        "Serve ingest — {} switches, {} events in batches of {} ({} request lines)\n",
        t.switches, t.target_events, t.batch, t.requests
    );
    println!("served report identical to one-shot sim: {}", t.identical);
    println!(
        "sustained: {:.0} served events/sec ({:.1} wall-ms; gate: >= {:.0})",
        t.events_per_sec, t.wall_ms, floor_eps
    );
    println!(
        "scenario load: {:.0} events/sec (gate: >= {:.0})",
        t.scenario_load_events_per_sec, floor_load_eps
    );
}
