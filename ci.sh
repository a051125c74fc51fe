#!/usr/bin/env bash
# CI gate: tier-1 verification plus style, lint, simulation, and bench checks.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release)"
cargo build --release

echo "== tests"
cargo test -q

echo "== benchmark self-test"
# The benchmark under perfbench/ is its own workspace built against this
# repository's public API; its tests fail here, not at benchmark time,
# when a change breaks an API it uses.
cargo test --release --manifest-path perfbench/Cargo.toml

echo "== rustfmt"
cargo fmt --check

echo "== clippy"
# First-party crates additionally clear a curated slice of the pedantic
# group (vendored stand-ins are exempt: they mirror upstream API shapes).
cargo clippy --all-targets --workspace --exclude rand --exclude proptest \
  --exclude criterion -- -D warnings \
  -W clippy::semicolon_if_nothing_returned \
  -W clippy::explicit_iter_loop \
  -W clippy::redundant_closure_for_method_calls \
  -W clippy::inefficient_to_string \
  -W clippy::map_unwrap_or \
  -W clippy::unnested_or_patterns \
  -W clippy::manual_let_else \
  -W clippy::implicit_clone \
  -W clippy::cloned_instead_of_copied \
  -W clippy::flat_map_option \
  -W clippy::filter_map_next \
  -W clippy::manual_string_new \
  -W clippy::needless_continue \
  -W clippy::range_plus_one
cargo clippy --all-targets -p rand -p proptest -p criterion -- -D warnings

echo "== static analysis gate"
# Every bundled app must come through the lint pass warning-aware: `check
# --lint` exits 0 (lints are warnings), and the listing drift is caught by
# the golden guard below. The deny gate is asserted from both sides — a
# lint-clean app passes `--deny-lints`, a linty one is refused by it.
for prog in crates/apps/programs/*.lucid; do
  echo "-- lint $(basename "$prog")"
  target/release/lucidc check --lint "$prog" 2>/dev/null
done
target/release/lucidc check --deny-lints crates/apps/programs/nat.lucid >/dev/null 2>&1
if target/release/lucidc check --deny-lints \
    crates/apps/programs/stateful_firewall.lucid >/dev/null 2>&1; then
  echo "static analysis: --deny-lints let a linty program through" >&2
  exit 1
fi
echo "-- lint gate holds (nat clean, stateful_firewall refused under --deny-lints)"
# Memory safety is a compile-time property here: every first-party crate
# root forbids unsafe code outright.
for root in crates/*/src/lib.rs crates/cli/src/main.rs tests/src/lib.rs; do
  if ! grep -q '^#!\[forbid(unsafe_code)\]' "$root"; then
    echo "static analysis: $root is missing #![forbid(unsafe_code)]" >&2
    exit 1
  fi
done
echo "-- #![forbid(unsafe_code)] present in every crate root"

echo "== golden drift guard"
# Regenerate the per-opt-level bytecode disassembly into a temp dir and
# diff against the checked-in goldens: a stale golden file fails here
# with a readable diff instead of deep inside `cargo test`.
golden_tmp=$(mktemp -d)
trap 'rm -rf "$golden_tmp"' EXIT
UPDATE_GOLDEN=1 GOLDEN_DIR="$golden_tmp" \
  cargo test -q -p lucid-tests --test golden_bytecode >/dev/null
UPDATE_GOLDEN=1 GOLDEN_DIR="$golden_tmp" \
  cargo test -q -p lucid-tests --test golden_lints >/dev/null
if ! diff -ru tests/golden "$golden_tmp"; then
  echo "golden drift: tests/golden is stale; regenerate with" >&2
  echo "  UPDATE_GOLDEN=1 cargo test -p lucid-tests --test golden_bytecode" >&2
  echo "  UPDATE_GOLDEN=1 cargo test -p lucid-tests --test golden_lints" >&2
  echo "and review the diff like any other code change" >&2
  exit 1
fi
echo "-- 40 golden listings match"
# Disassembly stability for the packed encoding: a word listing is a
# pure function of the source program, so dumping the same app twice at
# the same opt level must produce byte-identical text. This catches
# nondeterminism the golden diff above cannot — e.g. hash-ordered
# side-table (wide/ext pool) emission or address-dependent rendering —
# and `--verify-bytecode` makes every dump decode-check the packed
# words (V0011) before printing.
for opt in 0 1 2; do
  for prog in crates/apps/programs/*.lucid; do
    a=$(target/release/lucidc sim --dump-bytecode --verify-bytecode --opt="$opt" "$prog")
    b=$(target/release/lucidc sim --dump-bytecode --verify-bytecode --opt="$opt" "$prog")
    if [ "$a" != "$b" ]; then
      echo "disassembly instability: $prog at --opt=$opt printed two different listings" >&2
      exit 1
    fi
  done
done
echo "-- packed-word disassembly stable across repeated dumps (10 apps x 3 opt levels)"

echo "== fuzz smoke"
# Bounded differential fuzzing: the vendored proptest shim is seeded, so
# this is deterministic; 64 cases across the Figure-9 apps must agree
# between the AST walker and the bytecode executor at every opt level (an
# optimizer miscompile cannot hide behind an equally-wrong lowering, and
# vice versa) — the opt sweep is inside the test itself
# (tests/tests/differential.rs).
LUCID_FUZZ_CASES=64 cargo test -q -p lucid-tests --test differential

echo "== sim gate"
# Every checked-in scenario must run green against its app: the file
# crates/apps/scenarios/<app>[.variant].sim.json pairs with
# crates/apps/programs/<app>.lucid. Run each under both handler
# executors.
shopt -s nullglob
scenarios=(crates/apps/scenarios/*.sim.json)
if [ "${#scenarios[@]}" -lt 8 ]; then
  echo "sim gate: expected at least 8 scenarios, found ${#scenarios[@]}" >&2
  exit 1
fi
for sc in "${scenarios[@]}"; do
  base=$(basename "$sc" .sim.json)
  app=${base%%.*}
  prog="crates/apps/programs/$app.lucid"
  # One run exactly as authored (no overrides), so scenario-pinned
  # exec/opt fields stay exercised end to end.
  echo "-- sim [authored] $sc"
  target/release/lucidc sim "$prog" "$sc"
  echo "-- sim [ast] $sc"
  target/release/lucidc sim --exec=ast "$prog" "$sc"
  # The bytecode executor runs at both ends of the optimizer pipeline:
  # raw lowering and the full superinstruction + regalloc stack. Each
  # run is fronted by the bytecode verifier, so the code that executes
  # is the code the dataflow pass vouched for.
  for opt in 0 2; do
    echo "-- sim [bytecode/o$opt] $sc"
    target/release/lucidc sim --exec=bytecode --opt="$opt" \
      --verify-bytecode "$prog" "$sc"
  done
done

# Resource budget: a program whose arrays cannot be built (4e9 cells)
# is refused with a structured validate error before anything is
# allocated, never an out-of-memory abort.
echo "-- sim [cell budget] oversized array"
budget_rc=0
budget_json=$(target/release/lucidc sim --json \
  <(printf 'global cts = new Array<<32>>(4000000000);\nevent pkt(int i);\nhandle pkt(int i) { Array.set(cts, i, 1); }\n') \
  <(printf '{"events": [{"time_ns": 0, "switch": 1, "event": "pkt", "args": [3]}]}')) \
  || budget_rc=$?
case "$budget_json" in
  *'"kind":"validate"'*'array `cts`'*'budget of 67108864 cells'*) ;;
  *) echo "cell budget: want a structured validate error, got: $budget_json" >&2; exit 1 ;;
esac
if [ "$budget_rc" -ne 1 ]; then
  echo "cell budget: want exit 1, got $budget_rc" >&2
  exit 1
fi

echo "== workload scale"
# The generator subsystem's scale proof: rescale the bundled dns_flood
# scenario past one million injected events with `--events` (the stream
# is pulled lazily — no event vector is ever materialized) and require
# the raw bytecode lowering (O0) and the full optimizer pipeline (O2) to
# agree on the final state digest AND the latency-metrics digest (one
# mis-bucketed histogram sample fails here, not just state divergence).
flood_json() {
  target/release/lucidc sim --exec=bytecode --opt="$1" \
    --events=1000000 --json \
    crates/apps/programs/dns_defense.lucid \
    crates/apps/scenarios/dns_defense.flood.sim.json
}
j_o0=$(flood_json 0)
j_o2=$(flood_json 2)
state_of()   { printf '%s' "$1" | sed -n 's/.*"state_digest":"\([0-9a-f]*\)".*/\1/p'; }
metrics_of() { printf '%s' "$1" | sed -n 's/.*"metrics":{"digest":"\([0-9a-f]*\)".*/\1/p'; }
d_o0=$(state_of "$j_o0"); d_o2=$(state_of "$j_o2")
m_o0=$(metrics_of "$j_o0"); m_o2=$(metrics_of "$j_o2")
if [ -z "$d_o0" ] || [ "$d_o0" != "$d_o2" ]; then
  echo "workload scale: state digests differ at 1M events (o0=$d_o0 o2=$d_o2)" >&2
  exit 1
fi
if [ -z "$m_o0" ] || [ "$m_o0" != "$m_o2" ]; then
  echo "workload scale: metrics digests differ at 1M events (o0=$m_o0 o2=$m_o2)" >&2
  exit 1
fi
echo "-- 1M-event dns_flood digests agree: state $d_o0, metrics $m_o0"

echo "== serve gate"
# The persistent-service invariant: a session served by the `lucidc
# serve` daemon — opened on a truncated scenario, hot-swapped (same
# source, so the daemon's build cache reconfigures instead of
# re-parsing), fed the missing events over `ingest`, advanced in
# segments, snapshotted, restored into a *fresh* session, and drained —
# must land on exactly the state and metrics digests of the equivalent
# one-shot `lucidc sim` run. The scripted client drives the daemon over
# stdin/stdout, one JSON request per line.
python3 - <<'EOF'
import json, subprocess, sys

LUCIDC = "target/release/lucidc"
PROG = "crates/apps/programs/dns_defense.lucid"
SC = "crates/apps/scenarios/dns_defense.sim.json"

full = json.load(open(SC))
times = [e["time_ns"] for e in full["events"]]
mid = sorted(times)[len(times) // 2]
trunc = dict(full)
trunc["events"] = [e for e in full["events"] if e["time_ns"] < mid]
trunc.pop("expect", None)
late = [e for e in full["events"] if e["time_ns"] >= mid]

one = subprocess.run(
    [LUCIDC, "sim", "--json", PROG, SC],
    capture_output=True, text=True)
assert one.returncode == 0, one.stderr
rep = json.loads(one.stdout)
want = (rep["state_digest"], rep["metrics"]["digest"])

daemon = subprocess.Popen(
    [LUCIDC, "serve"], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    text=True)

# One request line past serve::MAX_LINE_BYTES (64 MiB) comes first: the
# daemon streams it past without buffering, answers with a protocol
# error, and the session below must still land on the one-shot digests.
MAX_LINE_BYTES = 64 << 20
chunk = "x" * (1 << 20)
for _ in range(MAX_LINE_BYTES // len(chunk)):
    daemon.stdin.write(chunk)
daemon.stdin.write("x\n")
daemon.stdin.flush()
refused = json.loads(daemon.stdout.readline())
assert refused.get("ok") is False, refused
assert refused["error"]["kind"] == "protocol", refused
assert "exceeds" in refused["error"]["msg"], refused

def ask(req):
    daemon.stdin.write(json.dumps(req) + "\n")
    daemon.stdin.flush()
    reply = json.loads(daemon.stdout.readline())
    assert reply.get("ok"), f"{req.get('op')} failed: {reply}"
    return reply

sc_doc = json.dumps(trunc)
ask({"op": "open", "program_path": PROG, "scenario": sc_doc})
# Swap before any event runs: same source, so the daemon's cached
# build reconfigures (no re-parse) and the queued events remap 1:1.
swap = ask({"op": "swap", "session": 1, "program_path": PROG})
assert swap["queued_dropped"] == 0 and swap["arrays_reset"] == 0, swap
ask({"op": "ingest", "session": 1, "events": late})
ask({"op": "advance", "session": 1, "to_ns": mid})
snap = ask({"op": "snapshot", "session": 1})["bytes"]
# The snapshot transplants into a fresh session over the same
# program + scenario; the donor is closed undrained.
ask({"op": "open", "program_path": PROG, "scenario": sc_doc})
ask({"op": "restore", "session": 2, "bytes": snap})
ask({"op": "close", "session": 1})
report = ask({"op": "drain", "session": 2})["report"]
got = (report["state_digest"], report["metrics"]["digest"])
shutdown = ask({"op": "shutdown"})
assert shutdown.get("shutdown") is True, shutdown
daemon.stdin.close()
assert daemon.wait(timeout=30) == 0, "daemon exit code"

if got != want:
    print(f"serve gate: served digests {got} != one-shot {want}",
          file=sys.stderr)
    sys.exit(1)
print(f"-- serve gate: overlong line refused; served session matches "
      f"one-shot (state {got[0]}, metrics {got[1]})")
EOF

echo "== bench smoke"
# Every figure binary must run in smoke mode and emit parseable JSON.
json_check() {
  if command -v jq >/dev/null 2>&1; then
    jq -e . >/dev/null
  else
    python3 -c 'import json,sys; json.load(sys.stdin)'
  fi
}
for bin in fig09_apps fig10_loc_breakdown fig11_compile_times fig12_stage_ratio \
           fig13_parallelism fig14_delay_queue fig15_recirc_uses fig16_sfw_model \
           fig17_sfw_install; do
  echo "-- bench $bin"
  target/release/"$bin" --smoke --json | json_check
done

echo "== docs gate"
# Rustdoc over the first-party crates must be warning-clean (broken
# intra-doc links, redundant targets, bad code fences all fail); the
# vendored shims are exempt. Then every docs/*.md file the README links
# must actually exist — a renamed doc fails here, not as a 404 on GitHub.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
  -p lucid-core -p lucid-frontend -p lucid-check -p lucid-backend \
  -p lucid-tofino -p lucid-interp -p lucid-apps -p lucid-bench \
  -p lucid-cli -p lucid-tests
echo "-- rustdoc warning-clean across first-party crates"
docs_missing=0
for doc in $(grep -o 'docs/[A-Za-z0-9_.-]*\.md' README.md | sort -u); do
  if [ ! -f "$doc" ]; then
    echo "docs gate: README links $doc but it does not exist" >&2
    docs_missing=1
  fi
done
[ "$docs_missing" -eq 0 ]
# The two reference docs are load-bearing for the README — keep them
# linked, not just present.
for doc in docs/ARCHITECTURE.md docs/scenario-schema.md; do
  if ! grep -q "$doc" README.md; then
    echo "docs gate: README no longer links $doc" >&2
    exit 1
  fi
done
echo "-- all README-linked docs/*.md files exist"

echo "== perf trajectory gate (BENCH_PR.json)"
# The interpreter-speed benchmarks run in smoke mode and their JSON is
# recorded at the repo root; the GitHub workflow uploads it as a build
# artifact, so every PR carries its measured numbers. Recorded floors
# (all measured with headroom on a single-core dev container) fail the
# gate when the bytecode-over-walker speedup or the sustained events/sec
# regresses:
#   fig_sim_throughput  bytecode_speedup >= 6.0   (measured ~13x)
#   fig_workload_scale  bytecode_speedup >= 10.0  (measured ~11-13x; the
#                       binary itself asserts the same floor)
#   fig_workload_scale  min_events_per_sec >= 20000 (measured ~170k)
#   fig_serve_ingest    events_per_sec >= 200000  (measured ~700-800k on
#                       2 cores; the served rate includes request
#                       decoding and reply rendering on top of the engine)
#   fig_serve_ingest    scenario_load_events_per_sec >= 150000
#                       (measured ~460-670k: one 60k-event scenario
#                       document through Scenario::from_json)
st_json=$(target/release/fig_sim_throughput --smoke --json)
ws_json=$(target/release/fig_workload_scale --smoke --json)
sv_json=$(target/release/fig_serve_ingest --smoke --json)
printf '{"fig_sim_throughput":%s,"fig_workload_scale":%s,"fig_serve_ingest":%s}\n' \
  "$st_json" "$ws_json" "$sv_json" > BENCH_PR.json
json_check < BENCH_PR.json
field() { # field <json> <key> — first numeric value of "key":N
  printf '%s' "$1" | sed -n "s/.*\"$2\":\([0-9.][0-9.]*\).*/\1/p" | head -n1
}
floor() { # floor <label> <value> <min>
  if ! awk -v v="$2" -v f="$3" 'BEGIN { exit !(v + 0 >= f + 0) }'; then
    echo "perf gate: $1 = $2 fell below the recorded floor $3" >&2
    exit 1
  fi
  echo "-- $1 = $2 (floor $3)"
}
floor "fig_sim_throughput bytecode_speedup" "$(field "$st_json" bytecode_speedup)" 6.0
floor "fig_workload_scale bytecode_speedup" "$(field "$ws_json" bytecode_speedup)" 10.0
floor "fig_workload_scale min_events_per_sec" "$(field "$ws_json" min_events_per_sec)" 20000
floor "fig_serve_ingest events_per_sec" "$(field "$sv_json" events_per_sec)" 200000
floor "fig_serve_ingest scenario_load_events_per_sec" \
  "$(field "$sv_json" scenario_load_events_per_sec)" 150000
# Render the latency-tail percentile rows human-readable next to the raw
# JSON; the workflow uploads both, so a PR's tail latencies are one
# click away without parsing BENCH_PR.json.
python3 - > BENCH_PERCENTILES.txt <<'EOF'
import json
with open("BENCH_PR.json") as f:
    doc = json.load(f)
cols = ["metrics_digest", "lat_p50_ns", "lat_p90_ns", "lat_p99_ns",
        "lat_p999_ns", "lat_max_ns", "res_p99_ns", "res_max_ns"]
print(f"{'bench':<20} " + " ".join(f"{c:>16}" for c in cols))
for name, fig in doc.items():
    tail = fig.get("latency_tail", {})
    print(f"{name:<20} " + " ".join(f"{tail.get(c, '-'):>16}" for c in cols))
EOF
echo "-- latency tail percentiles recorded (BENCH_PERCENTILES.txt):"
cat BENCH_PERCENTILES.txt

echo "CI OK"
