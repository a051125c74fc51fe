//! Simulation throughput: the AST walker against the bytecode executor
//! on a cross-traffic-heavy 16-switch mesh (not a paper figure — it
//! benchmarks this reproduction's own `lucidc sim` subsystem).
//!
//! Correctness gate first: both executors must produce byte-identical
//! final array state, statistics, traces, printf output, and
//! per-event-class latency metrics. Then events/sec: bytecode-over-AST
//! is the flat-dispatch payoff and must be >= 2x everywhere — CI runs
//! this binary in smoke mode and this assertion is the gate.

fn main() {
    let mode = lucid_bench::BenchMode::from_args();
    let (switches, injected, ttl) = if mode.smoke {
        (16, 100, 3)
    } else {
        (16, 400, 4)
    };
    let t = lucid_bench::sim_throughput(switches, injected, ttl);
    assert!(
        t.identical,
        "executors disagree on state/stats/trace/output/metrics — determinism bug"
    );
    assert!(
        t.bytecode_speedup >= 2.0,
        "bytecode must be at least 2x the AST walker, got {:.2}x",
        t.bytecode_speedup
    );

    if mode.json {
        use lucid_bench::jsonout;
        let rows: Vec<String> = t
            .rows
            .iter()
            .map(|r| {
                jsonout::obj(&[
                    ("exec", jsonout::s(r.exec)),
                    ("events_processed", r.events_processed.to_string()),
                    ("wall_ms", jsonout::f(r.wall_ms)),
                    ("events_per_sec", jsonout::f(r.events_per_sec)),
                ])
            })
            .collect();
        let doc = format!(
            "{{\"figure\":\"fig_sim_throughput\",\"switches\":{},\"injected_per_switch\":{},\
             \"identical\":{},\"bytecode_speedup\":{},\"latency_tail\":{},\"rows\":[{}]}}",
            t.switches,
            t.injected_per_switch,
            t.identical,
            jsonout::f(t.bytecode_speedup),
            t.tail.to_json(),
            rows.join(",")
        );
        println!("{doc}");
        return;
    }

    println!(
        "Simulation throughput — {} switches, {} injected events/switch\n",
        t.switches, t.injected_per_switch
    );
    let rows: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| {
            vec![
                r.exec.to_string(),
                r.events_processed.to_string(),
                format!("{:.1}", r.wall_ms),
                format!("{:.0}", r.events_per_sec),
            ]
        })
        .collect();
    print!(
        "{}",
        lucid_bench::render_table(&["exec", "events", "wall ms", "events/sec"], &rows)
    );
    println!(
        "\nstate/stats/trace/printf/metrics identical across executors: {}",
        t.identical
    );
    println!("{}", t.tail.render());
    println!(
        "bytecode speedup over the AST walker: {:.2}x",
        t.bytecode_speedup
    );
}
