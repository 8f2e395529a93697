//! `serve`: a server started through `iddq_serve` with its default two
//! workers and a temporary artifact store, driven by two closed-loop
//! connections with a seeded mix of `sim`, `faults`, `stats` at `gatesep`
//! and inline-`.bench` `sim` requests over a working set larger than the
//! server's memory cache.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use iddq_logicsim::fault_sweep::{self, FaultSweepOptions};
use iddq_netlist::{bench, Netlist, W256};
use iddq_serve::{detection_digest, fault_universe, random_vectors, Client, Server, ServerConfig};
use serde_json::{json, Value};

use crate::util::{circuit_seed, median, metric, rounds, setup, Metric, Rng};
use crate::{check, circuits, generate, trace, Outcome, RunArgs};

/// Closed-loop connections.
const CLIENTS: usize = 2;
/// Memory-cache ceiling: below the working set's resident size, so the
/// cache evicts and the store serves the evicted circuits.
const CACHE_BYTES: usize = 6 << 20;
/// Patterns per `sim` request.
const SIM_PATTERNS: u64 = 4096;
/// Vectors and bridges per `faults` request.
const FAULT_VECTORS: usize = 256;
const FAULT_BRIDGES: usize = 16;
/// Pattern seed of one inline `sim` request per round: above 2^53, where
/// the service's JSON numbers (f64) can no longer hold every integer. The
/// request runs under a rounded seed and its checksum comes out wrong
/// every time; it is counted in `failed` (see `README.md`).
const WIDE_SEED: u64 = (1 << 53) + 1;

/// Request kinds, in metric order.
const KINDS: [&str; 4] = ["sim", "faults", "stats", "inline"];
/// Span names of the request kinds.
const SPANS: [&str; 4] = ["serve.sim", "serve.faults", "serve.stats", "serve.inline"];

/// One working-set circuit: a named profile generated by the server from
/// the request seed, or inline `.bench` text.
#[derive(Debug, Clone)]
enum Entry {
    Named { name: &'static str, seed: u64 },
    Inline { text: String, seed: u64 },
}

/// One request of a client's list.
#[derive(Debug, Clone)]
struct Planned {
    kind: usize,
    entry: usize,
}

/// One answered request, reduced to what the checks read.
#[derive(Debug)]
struct Answer {
    planned: Planned,
    id: u64,
    latency_ms: f64,
    /// The response's status was `ok`.
    ok: bool,
    /// The checked result field: the `sim` checksum, the `faults` digest,
    /// or `<gates>@<tier>` for `stats`.
    value: String,
}

impl Answer {
    fn new(planned: &Planned, id: u64, latency_ms: f64, response: &Value) -> Self {
        let result = &response["result"];
        let field = |name: &str| match &result[name] {
            Value::String(s) => s.clone(),
            other => text(other),
        };
        let value = match KINDS[planned.kind] {
            "faults" => field("digest"),
            "stats" => format!("{}@{}", field("gates"), field("tier")),
            _ => field("checksum"),
        };
        Answer {
            planned: planned.clone(),
            id,
            latency_ms,
            ok: response["status"] == "ok",
            value,
        }
    }
}

fn request(entry: &Entry, kind: usize, id: u64) -> Value {
    match (entry, KINDS[kind]) {
        (Entry::Named { name, seed }, "sim") => {
            json!({"id": id, "op": "sim", "circuit": name, "seed": seed, "patterns": SIM_PATTERNS})
        }
        (Entry::Named { name, seed }, "faults") => json!({
            "id": id, "op": "faults", "circuit": name, "seed": seed,
            "vectors": FAULT_VECTORS, "bridges": FAULT_BRIDGES,
        }),
        (Entry::Named { name, seed }, _) => {
            json!({"id": id, "op": "stats", "circuit": name, "seed": seed, "tier": "gatesep"})
        }
        (Entry::Inline { text, seed }, _) => {
            json!({"id": id, "op": "sim", "bench": text, "seed": seed, "patterns": SIM_PATTERNS})
        }
    }
}

/// The working set: named profiles at two generation seeds each (the
/// request seed of a named circuit is also its generation seed), plus
/// inline uploads of generated circuits, plus the [`WIDE_SEED`] entry
/// last. The circuits are fixed; the run's seed draws the inline
/// requests' pattern seeds.
fn working_set(args: &RunArgs) -> Vec<Entry> {
    let names: &[&'static str] = if args.small {
        &["c432"]
    } else {
        &["c432", "c499", "c880", "c1355", "c1908"]
    };
    let mut out = Vec::new();
    for (k, &name) in names.iter().enumerate() {
        for s in 0..2u64 {
            out.push(Entry::Named {
                name,
                seed: 1000 + 2 * k as u64 + s,
            });
        }
    }
    let inline: &[(&str, ())] = if args.small {
        &[("c432", ())]
    } else {
        &[("c432", ()), ("c880", ()), ("c1908", ())]
    };
    let mut rng = Rng::new(args.seed ^ 0x1111);
    for (nl, ()) in circuits(inline, |name| circuit_seed(name) ^ 0x1111) {
        out.push(Entry::Inline {
            text: bench::to_bench(&nl),
            seed: rng.next_u64() >> 12,
        });
    }
    let Some(Entry::Inline { text, .. }) = out.last() else {
        unreachable!("the list ends with inline entries")
    };
    out.push(Entry::Inline {
        text: text.clone(),
        seed: WIDE_SEED,
    });
    out
}

/// Each client's request list for one round: fixed shares of the kinds
/// (sim 40%, faults, stats and inline 20% each), every kind spread evenly
/// over its circuits (inline requests over the inline entries, the rest
/// over the named ones), in an order drawn from the run's seed and the
/// round. Every round sends the same requests; the order changes from
/// round to round, so a run's cache hit rate averages over many orders
/// instead of hanging on one. The first client also sends the
/// [`WIDE_SEED`] request once.
fn plan(args: &RunArgs, set: &[Entry], per_client: usize, round: u64) -> Vec<Vec<Planned>> {
    let named: Vec<usize> = (0..set.len())
        .filter(|&i| matches!(set[i], Entry::Named { .. }))
        .collect();
    let wide = set.len() - 1;
    let inline: Vec<usize> = (0..wide)
        .filter(|&i| matches!(set[i], Entry::Inline { .. }))
        .collect();
    let mut rng = Rng::new(args.seed ^ 0x5e7e ^ round.wrapping_mul(0x9e37_79b9));
    (0..CLIENTS)
        .map(|c| {
            let mut list: Vec<Planned> = Vec::with_capacity(per_client + 1);
            if c == 0 {
                list.push(Planned {
                    kind: 3,
                    entry: wide,
                });
            }
            for (kind, share) in [(0, 2), (1, 1), (2, 1), (3, 1)] {
                let pool = if kind == 3 { &inline } else { &named };
                list.extend((0..per_client * share / 5).map(|i| Planned {
                    kind,
                    entry: pool[i % pool.len()],
                }));
            }
            for i in (1..list.len()).rev() {
                list.swap(i, rng.below(i + 1));
            }
            list
        })
        .collect()
}

struct Running {
    server: Server,
    dir: PathBuf,
}

fn start(dir: &Path) -> Result<Server, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Server::start(ServerConfig {
        cache_bytes: CACHE_BYTES,
        state_dir: dir.join("state"),
        store_dir: Some(dir.join("store")),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))
}

/// Starts a server on a fresh directory and sends the cold first request
/// for every working-set circuit.
fn set_up(dir: PathBuf, set: &[Entry]) -> Result<Running, String> {
    let server = {
        let _span = trace::span("serve.start", 0);
        start(&dir)?
    };
    let _span = trace::span("serve.warm", 0);
    let mut client =
        Client::connect(&server.local_addr().to_string()).map_err(|e| format!("connect: {e}"))?;
    for (k, entry) in set.iter().enumerate() {
        let kind = if matches!(entry, Entry::Inline { .. }) {
            3
        } else {
            2
        };
        let resp = client
            .call(&request(entry, kind, k as u64))
            .map_err(|e| format!("warm-up request: {e}"))?;
        if resp["status"] != "ok" {
            return Err(format!("warm-up request failed: {}", text(&resp)));
        }
    }
    Ok(Running { server, dir })
}

fn stop(running: Running) {
    let _ = running.server.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(&running.dir);
}

fn counters(server: &Server) -> [u64; 4] {
    let m = server.metrics_value();
    let n = |v: &Value| v.as_u64().unwrap_or(0);
    [
        n(&m["cache"]["hits"]),
        n(&m["cache"]["misses"]),
        n(&m["store"]["hits"]),
        n(&m["cache"]["evictions"]),
    ]
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let per_client = if args.small { 20 } else { 150 };
    let root = Path::new(".bench_build")
        .join("perfbench-run")
        .join(format!("serve-{}", std::process::id()));
    // Every set-up starts its own server on a fresh directory; all but the
    // last are stopped once set-up is over (off the set-up clock).
    let mut started: Vec<Result<Running, String>> = Vec::new();
    let (set, setup_s) = setup(args.setup_reps().min(3), || {
        let set = working_set(args);
        let dir = root.join(format!("rep{}", started.len()));
        started.push(set_up(dir, &set));
        set
    });
    let last = started.pop().expect("at least one set-up ran");
    for old in started.into_iter().flatten() {
        stop(old);
    }
    let running = match last {
        Ok(r) => r,
        Err(e) => {
            let mut out = Outcome::new(setup_s, &[0.0], 1);
            out.failed = 1;
            out.fail_check(format!("set-up failed: {e}"));
            return out;
        }
    };
    let addr = running.server.local_addr().to_string();
    let before = counters(&running.server);
    let (answers, times) = rounds(args.seconds, |round| {
        drive(&addr, &set, &plan(args, &set, per_client, round), round)
    });
    let after = counters(&running.server);
    stop(running);
    let _ = std::fs::remove_dir_all(&root);

    let per_round = CLIENTS * per_client + 1;
    let mut out = Outcome::new(setup_s, &times, per_round);
    let answers: Vec<Answer> = answers.into_iter().flatten().collect();
    out.failed = out.attempted - answers.iter().filter(|a| a.ok).count() as u64;
    out.op_ms = answers.iter().map(|a| a.latency_ms).collect();
    let mut layers: Vec<Metric> = KINDS
        .iter()
        .enumerate()
        .map(|(k, kind)| {
            let l: Vec<f64> = answers
                .iter()
                .filter(|a| a.planned.kind == k)
                .map(|a| a.latency_ms)
                .collect();
            metric(&format!("serve.{kind}_p50_ms"), median(&l), "ms")
        })
        .collect();
    let rounds_f = times.len() as f64;
    for (k, name) in ["cache_hits", "cache_misses", "store_hits", "evictions"]
        .iter()
        .enumerate()
    {
        layers.push(metric(
            &format!("serve.{name}"),
            (after[k] - before[k]) as f64 / rounds_f,
            "count",
        ));
    }
    out.layers = layers;
    verify(args, &set, &answers, &mut out);
    out
}

/// One round: every client sends its list, one request at a time.
fn drive(addr: &str, set: &[Entry], plans: &[Vec<Planned>], round: u64) -> Vec<Answer> {
    let parent = trace::current();
    std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, list)| {
                scope.spawn(move || {
                    let _client_span = trace::span_under("serve.client", c as u64, parent);
                    let mut answers = Vec::with_capacity(list.len());
                    let Ok(mut client) = Client::connect(addr) else {
                        return answers;
                    };
                    for (i, p) in list.iter().enumerate() {
                        let id = (round << 32) | ((c as u64) << 24) | i as u64;
                        let req = request(&set[p.entry], p.kind, id);
                        let started = Instant::now();
                        let response = {
                            let _span = trace::span(SPANS[p.kind], id);
                            client.call(&req)
                        };
                        let latency_ms = started.elapsed().as_secs_f64() * 1e3;
                        let response =
                            response.unwrap_or_else(|e| json!({"status": format!("{e}")}));
                        answers.push(Answer::new(p, id, latency_ms, &response));
                    }
                    answers
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    })
}

/// The netlist a request resolves to on the server.
fn resolve(entry: &Entry) -> Netlist {
    match entry {
        Entry::Named { name, seed } => generate(name, *seed),
        Entry::Inline { text, .. } => bench::parse("inline", text).expect("generated text parses"),
    }
}

/// Checks the answers: `sim` checksums recomputed by the benchmark's
/// evaluator, `faults` digests against a direct library sweep at another
/// lane width and thread count, `stats` against the netlist. A wrong
/// answer to the [`WIDE_SEED`] request counts as a failed operation.
fn verify(args: &RunArgs, set: &[Entry], answers: &[Answer], out: &mut Outcome) {
    let mut expected: BTreeMap<(usize, usize), String> = BTreeMap::new();
    for a in answers.iter().filter(|a| a.ok) {
        let want = expected
            .entry((a.planned.kind, a.planned.entry))
            .or_insert_with(|| expect(set, &a.planned));
        if a.value == *want {
            continue;
        }
        if a.planned.entry == set.len() - 1 {
            out.failed += 1;
            continue;
        }
        out.fail_check(format!(
            "{} request {}: answered {} but the check computes {want} (seed {})",
            KINDS[a.planned.kind], a.id, a.value, args.seed
        ));
        return;
    }
}

/// What a correct answer to `p` carries, computed without the server.
fn expect(set: &[Entry], p: &Planned) -> String {
    let entry = &set[p.entry];
    match (KINDS[p.kind], entry) {
        ("faults", Entry::Named { name, seed }) => direct_digest(&generate(name, *seed), *seed),
        ("stats", _) => format!("{}@gatesep", resolve(entry).gate_count()),
        (_, Entry::Named { seed, .. } | Entry::Inline { seed, .. }) => {
            check::sim_checksum(&resolve(entry), SIM_PATTERNS, *seed)
        }
    }
}

/// The detection digest of the service's fault job, computed by calling
/// the sweep directly with 256 lanes on two threads (the server sweeps
/// with 64 lanes on one).
fn direct_digest(nl: &Netlist, seed: u64) -> String {
    let faults = fault_universe(nl, FAULT_BRIDGES, seed);
    let vectors = random_vectors(nl, FAULT_VECTORS, seed);
    let outcome = fault_sweep::sweep::<W256>(
        nl,
        &faults,
        &vectors,
        &FaultSweepOptions {
            threads: 2,
            ..FaultSweepOptions::default()
        },
    );
    detection_digest(&outcome.first_detection)
}

/// A JSON value as compact text.
fn text(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_check_rejects_an_altered_checksum() {
        let args = RunArgs {
            workload: "serve".into(),
            seed: 5,
            seconds: 0.0,
            trace: false,
            small: true,
        };
        let set = working_set(&args);
        let entry = 0;
        let Entry::Named { seed, .. } = &set[entry] else {
            unreachable!("named entries come first")
        };
        let good = check::sim_checksum(&resolve(&set[entry]), SIM_PATTERNS, *seed);
        let answer = |checksum: &str| {
            let result = json!({ "checksum": checksum });
            let response = json!({"id": 1, "status": "ok", "result": result});
            Answer::new(&Planned { kind: 0, entry }, 1, 1.0, &response)
        };
        let mut out = Outcome::default();
        verify(&args, &set, &[answer(&good)], &mut out);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        let altered = format!("{:#018x}", u64::from_str_radix(&good[2..], 16).unwrap() ^ 1);
        verify(&args, &set, &[answer(&altered)], &mut out);
        assert_eq!(out.failures.len(), 1);
    }
}
