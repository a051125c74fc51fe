//! Figure 11 stand-in. The paper's Figure 11 is a human study (time for a
//! student without Tofino experience to write each app); developer time
//! cannot be simulated. We print the paper's numbers for reference and
//! report compile+check wall time — the iteration-loop latency a
//! developer actually feels.

fn main() {
    let mode = lucid_bench::BenchMode::from_args();
    let data = lucid_bench::figure11();
    if mode.json {
        use lucid_bench::jsonout;
        let rows: Vec<String> = data
            .iter()
            .map(|r| {
                jsonout::obj(&[
                    ("app", jsonout::s(r.key)),
                    ("compile_time_us", jsonout::f(r.compile_time_us)),
                    (
                        "paper_dev_time",
                        r.paper_dev_time
                            .map_or_else(|| "null".to_string(), jsonout::s),
                    ),
                ])
            })
            .collect();
        jsonout::emit("fig11", &rows);
        return;
    }
    println!("Figure 11 — development time (paper, human study) and compile time (ours)\n");
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|r| {
            vec![
                r.key.to_string(),
                r.paper_dev_time.unwrap_or("-").to_string(),
                format!("{:.1} ms", r.compile_time_us / 1_000.0),
            ]
        })
        .collect();
    print!(
        "{}",
        lucid_bench::render_table(&["app", "paper dev. time", "our compile+check time"], &rows)
    );
    println!(
        "\nnote: the dev-time column is the paper's human study, which software cannot \
         reproduce; compile+check time is the closest measurable proxy."
    );
}
