//! The `serve` workload: the real `aq-served` binary with its default
//! configuration (one numeric and one algebraic worker) on an ephemeral
//! port, driven by two closed-loop TCP connections. Each connection
//! replays its own fixed, seeded request sequence, sending `submit` and
//! then `wait` for one request at a time.

use std::collections::HashSet;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use aq_circuits::Circuit;
use aq_serve::{Json, Request};
use aq_sim::SchemeSpec;

use crate::engine::Scheme;
use crate::host::{peak_rss_mb, reset_peak_rss, thread_cpu_s};
use crate::kernels::batched;
use crate::report::{Metrics, Tally};
use crate::rng::Rng;
use crate::stats::{beyond, median, quantile};
use crate::trace::Tracer;
use crate::{Args, Outcome};

/// Passes per run. Each starts a fresh server, replays the warm-up (the
/// set-up) and then the timed sequence; `setup_s` is their median.
const PASSES: usize = 8;
/// Blocks per connection and `--seconds` of the timed sequence.
const BLOCKS_PER_SECOND: usize = 4;
/// Blocks per connection of the serve probe in the engine workloads'
/// traced runs.
const PROBE_BLOCKS: usize = 8;
/// A repeat reuses one of its connection's last this-many fresh
/// requests. Both connections together insert far fewer entries than the
/// server's 256-entry result cache holds in that span, so every repeat
/// hits the cache whatever the interleaving.
const REPEAT_WINDOW: usize = 40;
/// Every submission's budget; admission refuses unlimited ones.
const BUDGET: &str = r#"{"max_nodes":4000000,"deadline_secs":60}"#;

/// Request kinds, reported separately so a pooled percentile can be
/// traced to the kind that moved it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A verbatim repeat, answered from the result cache.
    Hit,
    /// Fresh numeric Grover or BWT runs.
    Numeric,
    /// Fresh Grover runs under Q[ω] and GCD.
    Exact,
    /// Fresh inline Clifford+T QASM runs.
    Qasm,
    /// Fresh seeded GHZ shot sampling.
    Sample,
}

impl Kind {
    const ALL: [Kind; 5] = [
        Kind::Hit,
        Kind::Numeric,
        Kind::Exact,
        Kind::Qasm,
        Kind::Sample,
    ];

    fn label(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::Numeric => "numeric",
            Kind::Exact => "exact",
            Kind::Qasm => "qasm",
            Kind::Sample => "sample",
        }
    }
}

/// What a completed reply must show.
#[derive(Debug, Clone)]
enum Expect {
    /// Grover: the marked element is the most likely outcome.
    Marked(u64),
    /// A histogram summing to this many shots.
    Shots(u64),
    /// Byte for byte the answer to request `i` of the connection, bar the
    /// job id.
    Repeat(usize),
    /// The same probabilities and node count as request `i`, the same
    /// circuit under Q[ω] (this one runs under GCD).
    Twin(usize),
    /// Nothing beyond completion.
    Completed,
}

/// One request of a connection's sequence.
#[derive(Debug, Clone)]
struct Planned {
    kind: Kind,
    line: String,
    expect: Expect,
    /// Scheme of a fresh Grover run, whose gates/s feeds `gates_per_s`.
    grover: Option<&'static str>,
    /// Inline QASM payload.
    qasm: Option<String>,
}

/// Building blocks of a connection's sequence.
#[derive(Debug, Clone, Copy)]
enum Unit {
    NumericGrover,
    NumericBwt,
    QasmNumeric,
    SampleNumeric,
    ExactPair,
    QasmPair,
    SampleGcd,
    Hit,
}

/// One block of each connection's sequence, shuffled anew per block.
///
/// Connection 0 carries the numeric-class traffic and connection 1 the
/// algebraic-class traffic, one per worker of the default server: a
/// request never queues behind the other connection's job, whose timing
/// would otherwise set the tail latency.
///
/// The shares place the pooled percentiles inside one kind each: below
/// exact Grover (~2 ms) sit the hits, samples, QASM and BWT runs (37 % of
/// requests), exact Grover holds the next 46 % and so the median, and
/// numeric Grover (~5 ms) the top 17 % and so the p99. Both Grover kinds
/// are sized so that simulation, which drifts with the host far less than
/// thread hand-offs do, is most of their latency.
const BLOCKS: [&[(Unit, usize)]; 2] = [
    &[
        (Unit::NumericGrover, 6),
        (Unit::NumericBwt, 2),
        (Unit::QasmNumeric, 1),
        (Unit::SampleNumeric, 1),
        (Unit::Hit, 3),
    ],
    &[
        (Unit::ExactPair, 8),
        (Unit::QasmPair, 1),
        (Unit::SampleGcd, 1),
        (Unit::Hit, 3),
    ],
];

/// Generates both connections' sequences from one seeded stream, so no
/// fresh request repeats another anywhere in the run.
struct Generator {
    rng: Rng,
    used: HashSet<(bool, u64, u64)>,
    toy: bool,
}

impl Generator {
    /// An unused `(marked, variant)` Grover key.
    fn grover_key(&mut self, exact: bool, n: u32, variants: u64) -> (u64, u64) {
        loop {
            let key = (exact, self.rng.below(1 << n), self.rng.below(variants));
            if self.used.insert(key) {
                return (key.1, key.2);
            }
        }
    }

    /// A random Clifford+T circuit as inline QASM.
    fn clifford_t(&mut self) -> String {
        let (n, gates) = if self.toy { (3, 10) } else { (5, 60) };
        let mut src = format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{n}];\n");
        for _ in 0..gates {
            let a = self.rng.below(n);
            let line = match self.rng.below(6) {
                0 => format!("h q[{a}];\n"),
                1 => format!("t q[{a}];\n"),
                2 => format!("tdg q[{a}];\n"),
                3 => format!("s q[{a}];\n"),
                _ => format!("cx q[{a}], q[{}];\n", (a + 1 + self.rng.below(n - 1)) % n),
            };
            src.push_str(&line);
        }
        src
    }

    fn ghz(&mut self) -> String {
        let n = if self.toy { 3 } else { 8 + self.rng.below(9) };
        let mut src = format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{n}];\nh q[0];\n");
        for q in 1..n {
            src.push_str(&format!("cx q[{}], q[{q}];\n", q - 1));
        }
        src
    }

    /// Appends one unit to `seq`, the connection's history so far.
    fn unit(&mut self, unit: Unit, seq: &mut Vec<Planned>) {
        let fresh = |kind, line: String, expect, grover, qasm| Planned {
            kind,
            line,
            expect,
            grover,
            qasm,
        };
        match unit {
            Unit::NumericGrover => {
                let n = if self.toy { 4 } else { 9 };
                let (marked, v) = self.grover_key(false, n, 32);
                let line = format!(
                    r#"{{"verb":"submit","circuit":"grover","n":{n},"marked":{marked},"scheme":"numeric","eps":{}e-10,"top_k":4,"budget":{BUDGET}}}"#,
                    v + 1
                );
                seq.push(fresh(
                    Kind::Numeric,
                    line,
                    Expect::Marked(marked),
                    Some("numeric"),
                    None,
                ));
            }
            Unit::NumericBwt => {
                let seed = self.rng.below(1 << 40);
                let line = format!(
                    r#"{{"verb":"submit","circuit":"bwt","height":3,"steps":8,"seed":{seed},"scheme":"numeric","top_k":4,"budget":{BUDGET}}}"#
                );
                seq.push(fresh(Kind::Numeric, line, Expect::Completed, None, None));
            }
            Unit::ExactPair => {
                let n = if self.toy { 3 } else { 7 };
                let (marked, v) = self.grover_key(true, n, 64);
                // Distinct keys come from the top-k width and the budget's
                // power-of-two class, both part of the result-cache key.
                let (top_k, max_nodes) = (1 + v % 8, 1u64 << (20 + v / 8));
                let line = |scheme| {
                    format!(
                        r#"{{"verb":"submit","circuit":"grover","n":{n},"marked":{marked},"scheme":"{scheme}","top_k":{top_k},"budget":{{"max_nodes":{max_nodes},"deadline_secs":60}}}}"#
                    )
                };
                seq.push(fresh(
                    Kind::Exact,
                    line("qomega"),
                    Expect::Marked(marked),
                    Some("qomega"),
                    None,
                ));
                let twin = Expect::Twin(seq.len() - 1);
                seq.push(fresh(Kind::Exact, line("gcd"), twin, Some("gcd"), None));
            }
            Unit::QasmNumeric | Unit::QasmPair => {
                let src = self.clifford_t();
                let line = |scheme| {
                    format!(
                        r#"{{"verb":"submit","qasm":{},"scheme":"{scheme}","top_k":4,"budget":{BUDGET}}}"#,
                        crate::report::quote(&src)
                    )
                };
                if let Unit::QasmNumeric = unit {
                    seq.push(fresh(
                        Kind::Qasm,
                        line("numeric"),
                        Expect::Completed,
                        None,
                        Some(src.clone()),
                    ));
                } else {
                    seq.push(fresh(
                        Kind::Qasm,
                        line("qomega"),
                        Expect::Completed,
                        None,
                        Some(src.clone()),
                    ));
                    let twin = Expect::Twin(seq.len() - 1);
                    seq.push(fresh(Kind::Qasm, line("gcd"), twin, None, Some(src)));
                }
            }
            Unit::SampleNumeric | Unit::SampleGcd => {
                let src = self.ghz();
                let scheme = if let Unit::SampleGcd = unit {
                    "gcd"
                } else {
                    "numeric"
                };
                let seed = self.rng.below(1 << 40);
                let line = format!(
                    r#"{{"verb":"sample","qasm":{},"scheme":"{scheme}","shots":1024,"seed":{seed},"budget":{BUDGET}}}"#,
                    crate::report::quote(&src)
                );
                seq.push(fresh(
                    Kind::Sample,
                    line,
                    Expect::Shots(1024),
                    None,
                    Some(src),
                ));
            }
            Unit::Hit => {
                let fresh_idx: Vec<usize> = (0..seq.len())
                    .filter(|&i| seq[i].kind != Kind::Hit)
                    .collect();
                let window = &fresh_idx[fresh_idx.len().saturating_sub(REPEAT_WINDOW)..];
                let of = window[self.rng.below(window.len() as u64) as usize];
                let mut p = seq[of].clone();
                p.kind = Kind::Hit;
                p.expect = Expect::Repeat(of);
                p.grover = None;
                seq.push(p);
            }
        }
    }
}

/// Each connection's warm-up pass (one request of every kind) and timed
/// sequence of `blocks` blocks. A connection's history is its warm-up
/// followed by its timed requests; repeats point into that history.
fn plan(args: &Args, blocks: usize) -> [(Vec<Planned>, usize); 2] {
    let mut g = Generator {
        rng: Rng::new(args.seed, 2),
        used: HashSet::new(),
        toy: args.toy,
    };
    let mut seqs = [Vec::new(), Vec::new()];
    for (seq, block) in seqs.iter_mut().zip(BLOCKS) {
        for &(unit, _) in block {
            g.unit(unit, seq);
        }
    }
    let warm = [seqs[0].len(), seqs[1].len()];
    for _ in 0..blocks {
        for (seq, block) in seqs.iter_mut().zip(BLOCKS) {
            let mut units: Vec<Unit> = block
                .iter()
                .flat_map(|&(u, n)| std::iter::repeat_n(u, n))
                .collect();
            g.rng.shuffle(&mut units);
            for u in units {
                g.unit(u, seq);
            }
        }
    }
    let [a, b] = seqs;
    [(a, warm[0]), (b, warm[1])]
}

/// One TCP connection speaking the line protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            buf: String::new(),
        })
    }

    /// Sends one request line and reads the reply line.
    fn exchange(&mut self, line: &str) -> Result<&str, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.buf.clear();
        match self.reader.read_line(&mut self.buf) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.buf.trim_end()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// A running `aq-served`; dropping it stops the process and waits for it.
struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    fn spawn(bin: &Path, checkpoints: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .arg("--port=0")
            .arg(format!("--checkpoint-dir={}", checkpoints.display()))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("aq-served has no stdout pipe".into());
        };
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut server = Server {
            child,
            _stdout: stdout,
            addr: String::new(),
        };
        match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => server.addr = addr.to_string(),
            _ => {
                return Err(format!(
                    "aq-served did not report its address (got {line:?})"
                ))
            }
        }
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `shutdown` and waits up to 10 s for the process to exit.
    fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        conn.exchange(r#"{"verb":"shutdown"}"#)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("aq-served exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("aq-served did not exit after shutdown".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One executed request.
#[derive(Debug)]
struct Done {
    kind: Kind,
    /// Client seconds from writing `submit` to reading the terminal
    /// `wait` reply; infinite when the request failed.
    latency_s: f64,
    /// The server's `seconds` for the simulation.
    server_s: Option<f64>,
    /// Gates per server second of a fresh Grover run, with its scheme.
    grover_rate: Option<(&'static str, f64)>,
    rejected: bool,
}

/// Sends one request and waits for its terminal state. Returns the
/// completed reply, or why there is none; `Err` only when the connection
/// itself failed.
fn execute(
    conn: &mut Conn,
    p: &Planned,
    id: u64,
    tr: &mut Tracer,
) -> Result<(Done, Result<Json, String>), String> {
    let request = tr.begin("serve.request", id);
    let t0 = Instant::now();
    let submit = tr.begin("serve.submit", id);
    let reply = Json::parse(conn.exchange(&p.line)?);
    tr.end(submit);
    let mut done = Done {
        kind: p.kind,
        latency_s: f64::INFINITY,
        server_s: None,
        grover_rate: None,
        rejected: false,
    };
    let job = match &reply {
        Ok(r) if r.get("state").and_then(Json::as_str) == Some("queued") => {
            r.get("job").and_then(Json::as_u64)
        }
        _ => None,
    };
    let Some(job) = job else {
        tr.end(request);
        done.rejected =
            matches!(&reply, Ok(r) if r.get("state").and_then(Json::as_str) == Some("rejected"));
        let text = reply.map(|r| r.render()).unwrap_or_else(|e| e.to_string());
        return Ok((done, Err(format!("submit refused: {text}"))));
    };
    let wait = tr.begin("serve.wait", id);
    let reply = conn.exchange(&format!(
        r#"{{"verb":"wait","job":{job},"timeout_secs":60}}"#
    ))?;
    let latency_s = t0.elapsed().as_secs_f64();
    tr.end(wait);
    let reply = match Json::parse(reply) {
        Ok(r) => r,
        Err(e) => {
            tr.end(request);
            return Ok((done, Err(format!("unparsable wait reply: {e}"))));
        }
    };
    let server_s = reply.get("seconds").and_then(Json::as_f64);
    if let Some(s) = server_s {
        tr.set_attr(wait, s);
    }
    tr.end(request);
    let completed = reply.get("ok").and_then(Json::as_bool) == Some(true)
        && reply.get("state").and_then(Json::as_str) == Some("completed");
    if !completed {
        return Ok((
            done,
            Err(format!("request {id} did not complete: {}", reply.render())),
        ));
    }
    done.latency_s = latency_s;
    done.server_s = server_s;
    let gates = reply.get("gates_applied").and_then(Json::as_f64);
    done.grover_rate = p
        .grover
        .zip(gates.zip(server_s))
        .map(|(s, (g, t))| (s, g / t));
    Ok((done, Ok(reply)))
}

/// The reply without its job id, as the server rendered the rest.
fn without_job(reply: &Json) -> String {
    match reply {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| k != "job")
                .cloned()
                .collect(),
        )
        .render(),
        other => other.render(),
    }
}

/// Checks a completed reply against what its request expects.
fn check(expect: &Expect, reply: &Json, history: &[Option<Json>]) -> Result<(), String> {
    let earlier = |i: usize| {
        history
            .get(i)
            .and_then(Option::as_ref)
            .ok_or("the earlier request failed")
    };
    match expect {
        Expect::Completed => Ok(()),
        Expect::Marked(m) => {
            let top = reply.get("top").and_then(|t| match t {
                Json::Arr(v) => v.first(),
                _ => None,
            });
            let best = top.and_then(|p| match p {
                Json::Arr(v) => v.first().and_then(Json::as_u64),
                _ => None,
            });
            if best == Some(*m) {
                Ok(())
            } else {
                Err(format!("grover found {best:?}, marked {m}"))
            }
        }
        Expect::Shots(n) => {
            let counts = reply.get("sample").and_then(|s| s.get("counts"));
            let total: Option<u64> = match counts {
                Some(Json::Arr(v)) => v
                    .iter()
                    .map(|c| match c {
                        Json::Arr(pair) => pair.get(1).and_then(Json::as_u64),
                        _ => None,
                    })
                    .sum(),
                _ => None,
            };
            if total == Some(*n) {
                Ok(())
            } else {
                Err(format!("histogram sums to {total:?}, expected {n}"))
            }
        }
        Expect::Repeat(i) => {
            if without_job(earlier(*i)?) == without_job(reply) {
                Ok(())
            } else {
                Err(format!("repeat of request {i} answered differently"))
            }
        }
        Expect::Twin(i) => {
            let first = earlier(*i)?;
            let same = |key| first.get(key).map(Json::render) == reply.get(key).map(Json::render);
            if same("top") && same("final_nodes") {
                Ok(())
            } else {
                Err(format!("Q[ω] and GCD disagree on request {i}"))
            }
        }
    }
}

/// Everything one connection did in the timed phase.
#[derive(Debug)]
struct ConnRun {
    done: Vec<Done>,
    tally: Tally,
    tracer: Tracer,
}

/// Replays `seq[from..]` on `conn`, checking each reply against the
/// connection's `history`. `corrupt` damages the first repeat's reply.
fn replay(
    conn: &mut Conn,
    seq: &[Planned],
    from: usize,
    history: &mut Vec<Option<Json>>,
    id_base: u64,
    mut tracer: Tracer,
    mut corrupt: bool,
) -> Result<ConnRun, String> {
    let mut done = Vec::with_capacity(seq.len() - from);
    let mut tally = Tally::default();
    for (i, p) in seq.iter().enumerate().skip(from) {
        let (d, reply) = execute(conn, p, id_base + i as u64, &mut tracer)?;
        let status = reply.clone().and_then(|mut reply| {
            if corrupt && matches!(p.expect, Expect::Repeat(_)) {
                corrupt = false;
                if let Json::Obj(members) = &mut reply {
                    members.push(("corrupted".into(), Json::Bool(true)));
                }
            }
            check(&p.expect, &reply, history)
        });
        tally.rejected += u64::from(d.rejected);
        tally.record(status);
        history.push(reply.ok());
        done.push(d);
    }
    Ok(ConnRun {
        done,
        tally,
        tracer,
    })
}

/// Counters of the `metrics` verb that the per-layer metrics difference.
#[derive(Debug, Default, Clone, Copy)]
struct ServerCounters {
    cache_hits: f64,
    cache_misses: f64,
    warm_reuses: f64,
    worker_jobs: f64,
    busy_numeric: f64,
    busy_algebraic: f64,
}

impl ServerCounters {
    /// Adds `after - before`.
    fn add(&mut self, after: &ServerCounters, before: &ServerCounters) {
        self.cache_hits += after.cache_hits - before.cache_hits;
        self.cache_misses += after.cache_misses - before.cache_misses;
        self.warm_reuses += after.warm_reuses - before.warm_reuses;
        self.worker_jobs += after.worker_jobs - before.worker_jobs;
        self.busy_numeric += after.busy_numeric - before.busy_numeric;
        self.busy_algebraic += after.busy_algebraic - before.busy_algebraic;
    }
}

fn server_counters(reply: &Json) -> ServerCounters {
    let f = |j: Option<&Json>| j.and_then(Json::as_f64).unwrap_or(f64::NAN);
    let cache = reply.get("result_cache");
    let mut c = ServerCounters {
        cache_hits: f(cache.and_then(|c| c.get("hits"))),
        cache_misses: f(cache.and_then(|c| c.get("misses"))),
        ..ServerCounters::default()
    };
    if let Some(Json::Arr(workers)) = reply.get("workers") {
        for w in workers {
            c.warm_reuses += f(w.get("warm_reuses"));
            c.worker_jobs += f(w.get("jobs"));
            let busy = f(w.get("busy_seconds"));
            match w.get("class").and_then(Json::as_str) {
                Some("numeric") => c.busy_numeric += busy,
                _ => c.busy_algebraic += busy,
            }
        }
    }
    c
}

/// The `aq-served` binary: `--server`, or the one next to the harness.
fn server_binary(args: &Args) -> Result<PathBuf, String> {
    match &args.server {
        Some(p) => Ok(p.clone()),
        None => std::env::current_exe()
            .map(|exe| exe.with_file_name("aq-served"))
            .map_err(|e| e.to_string()),
    }
}

/// The server's checkpoint directory, removed after the run.
fn checkpoint_dir(args: &Args) -> PathBuf {
    args.out
        .clone()
        .unwrap_or_else(|| PathBuf::from("."))
        .join(format!("serve-checkpoints-{}", std::process::id()))
}

/// Runs the `serve` workload.
pub fn run(args: &Args) -> Outcome {
    let bin = match server_binary(args) {
        Ok(bin) => bin,
        Err(e) => return Outcome::failed(Tally::default(), e),
    };
    let checkpoints = checkpoint_dir(args);
    let outcome = run_with(args, &bin, &checkpoints);
    let _ = std::fs::remove_dir_all(&checkpoints);
    outcome
}

/// The serve layer in a traced run whose own traffic never reaches
/// `aq-served`: one pass of a short seeded sequence ([`PROBE_BLOCKS`]
/// blocks) on a fresh server. Pushes `circuits.qasm_parse_us` and the
/// `serve.*` metrics, and the `metrics` verb before and after the timed
/// phase to `counts`.
pub fn probe(
    args: &Args,
    tr: &mut Tracer,
    tally: &mut Tally,
    layers: &mut Metrics,
    counts: &mut Vec<String>,
) -> Result<(), String> {
    let bin = server_binary(args)?;
    let checkpoints = checkpoint_dir(args);
    let plans = plan(args, if args.toy { 1 } else { PROBE_BLOCKS });
    let pass = pass(args, &bin, &checkpoints, &plans, tr, tally, false);
    let _ = std::fs::remove_dir_all(&checkpoints);
    let pass = pass?;
    let done: Vec<&Done> = pass.done.iter().collect();
    serve_layers(
        &plans,
        std::slice::from_ref(&pass),
        &done,
        tally,
        tr,
        layers,
    );
    counts.push(boundary_counts(&pass));
    Ok(())
}

/// The fresh requests of the timed sequences as in-process engine jobs,
/// built by `CircuitSpec::build` as the server builds them, with the CPU
/// seconds the builds took.
fn engine_jobs(
    plans: &[(Vec<Planned>, usize); 2],
    tr: &mut Tracer,
) -> Result<(Vec<(Scheme, Circuit)>, f64), String> {
    let mut specs = Vec::new();
    for (seq, warm) in plans {
        for p in seq[*warm..].iter().filter(|p| p.kind != Kind::Hit) {
            match Request::parse(&p.line)? {
                Request::Submit(submit) => specs.push(*submit),
                other => return Err(format!("not a submission: {other:?}")),
            }
        }
    }
    let span = tr.begin("circuits.build", 0);
    let cpu0 = thread_cpu_s();
    let built: Result<Vec<Circuit>, String> = specs
        .iter()
        .map(|spec| spec.circuit.build().map(|(c, _)| c))
        .collect();
    let build_s = thread_cpu_s() - cpu0;
    tr.end(span);
    let jobs = specs
        .iter()
        .zip(built?)
        .map(|(spec, circuit)| {
            let scheme = match spec.scheme {
                SchemeSpec::Numeric { .. } => Scheme::Numeric,
                SchemeSpec::Qomega => Scheme::Qomega,
                SchemeSpec::Gcd => Scheme::Gcd,
            };
            (scheme, circuit)
        })
        .collect();
    Ok((jobs, build_s))
}

/// What one pass measured.
#[derive(Debug)]
struct Pass {
    setup_s: f64,
    setup_rss_mb: f64,
    peak_rss_mb: f64,
    timed_s: f64,
    /// Connection 0's timed requests, then connection 1's.
    done: Vec<Done>,
    before: String,
    after: String,
}

/// One pass: start a fresh server, replay each connection's warm-up
/// (the set-up), then both timed sequences concurrently, one connection on
/// this thread and one on a second.
fn pass(
    args: &Args,
    bin: &Path,
    checkpoints: &Path,
    plans: &[(Vec<Planned>, usize); 2],
    tr: &mut Tracer,
    tally: &mut Tally,
    corrupt: bool,
) -> Result<Pass, String> {
    let span = tr.begin("serve.setup", 0);
    let t0 = Instant::now();
    let server = Server::spawn(bin, checkpoints)?;
    let mut conns = [Conn::open(&server.addr)?, Conn::open(&server.addr)?];
    let mut histories = [Vec::new(), Vec::new()];
    for c in 0..2 {
        let (seq, warm) = &plans[c];
        let idle = Tracer::new(false, Instant::now());
        let run = replay(
            &mut conns[c],
            &seq[..*warm],
            0,
            &mut histories[c],
            (c as u64) << 32,
            idle,
            false,
        )?;
        tally.add(run.tally);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    tr.end(span);
    let setup_rss_mb = peak_rss_mb(server.pid())?;
    reset_peak_rss(server.pid())?;

    let before = conns[0].exchange(r#"{"verb":"metrics"}"#)?.to_string();
    let t0 = Instant::now();
    let [c0, c1] = &mut conns;
    let [h0, h1] = &mut histories;
    let epoch = tr.epoch();
    let (r0, r1) = std::thread::scope(|s| {
        let (seq1, warm1) = &plans[1];
        let tr1 = Tracer::new(args.trace, epoch);
        let other = s.spawn(move || replay(c1, seq1, *warm1, h1, 1 << 32, tr1, false));
        let (seq0, warm0) = &plans[0];
        let mine = replay(
            c0,
            seq0,
            *warm0,
            h0,
            0,
            Tracer::new(args.trace, epoch),
            corrupt,
        );
        (
            mine,
            other
                .join()
                .unwrap_or_else(|_| Err("connection thread panicked".into())),
        )
    });
    let timed_s = t0.elapsed().as_secs_f64();
    let after = conns[0].exchange(r#"{"verb":"metrics"}"#)?.to_string();
    let peak_rss_mb = peak_rss_mb(server.pid())?;
    server.shutdown(&mut conns[0])?;
    let (r0, r1) = (r0?, r1?);
    let mut done = r0.done;
    done.extend(r1.done);
    for r in [r0.tally, r1.tally] {
        tally.add(r);
    }
    tr.absorb(r0.tracer);
    tr.absorb(r1.tracer);
    Ok(Pass {
        setup_s,
        setup_rss_mb,
        peak_rss_mb,
        timed_s,
        done,
        before,
        after,
    })
}

fn run_with(args: &Args, bin: &Path, checkpoints: &Path) -> Outcome {
    let mut tr = Tracer::new(args.trace, Instant::now());
    let mut tally = Tally::default();
    let blocks = if args.toy {
        2
    } else {
        args.seconds as usize * BLOCKS_PER_SECOND
    };
    let plans = plan(args, blocks);
    let mut passes = Vec::new();
    for k in 0..PASSES {
        match pass(
            args,
            bin,
            checkpoints,
            &plans,
            &mut tr,
            &mut tally,
            args.corrupt && k == 0,
        ) {
            Ok(p) => passes.push(p),
            Err(e) => return Outcome::failed(tally, e),
        }
    }

    // Every pass replays the same traffic on a fresh server, so request i
    // does the same work in each. The host's speed drifts between levels
    // up to 40 % apart for seconds at a time; a request's fastest replay
    // and the fastest pass hold where a single pass's figures do not.
    let best: Vec<&Done> = (0..passes[0].done.len())
        .filter_map(|i| {
            passes
                .iter()
                .map(|p| &p.done[i])
                .min_by(|a, b| a.latency_s.total_cmp(&b.latency_s))
        })
        .collect();
    let latency_ms: Vec<f64> = best.iter().map(|d| d.latency_s * 1e3).collect();
    let completed = |p: &Pass| p.done.iter().filter(|d| d.latency_s.is_finite()).count() as f64;
    let jobs_per_s = passes
        .iter()
        .map(|p| completed(p) / p.timed_s)
        .fold(0.0, f64::max);
    let per_pass = |f: fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();

    let mut e2e = Metrics::default();
    e2e.push("setup_s", "s", median(&per_pass(|p| p.setup_s)), PASSES);
    e2e.push(
        "setup_peak_rss_mb",
        "MB",
        median(&per_pass(|p| p.setup_rss_mb)),
        PASSES,
    );
    e2e.push(
        "peak_rss_mb",
        "MB",
        median(&per_pass(|p| p.peak_rss_mb)),
        PASSES,
    );
    for scheme in ["numeric", "qomega", "gcd"] {
        let rates: Vec<f64> = (0..best.len())
            .filter_map(|i| {
                passes
                    .iter()
                    .filter_map(|p| p.done[i].grover_rate.filter(|r| r.0 == scheme).map(|r| r.1))
                    .reduce(f64::max)
            })
            .collect();
        e2e.push(
            format!("gates_per_s.{scheme}"),
            "1/s",
            median(&rates),
            rates.len(),
        );
    }
    e2e.push("jobs_per_s", "1/s", jobs_per_s, best.len());
    e2e.push(
        "latency_p50_ms",
        "ms",
        median(&latency_ms),
        latency_ms.len(),
    );
    e2e.push(
        "latency_p99_ms",
        "ms",
        quantile(&latency_ms, 0.99),
        latency_ms.len(),
    );

    let mut layers = Metrics::default();
    let mut counts: Vec<String> = passes.iter().map(boundary_counts).collect();
    if args.trace {
        serve_layers(&plans, &passes, &best, &tally, &mut tr, &mut layers);
        // The engine layers under this sequence's circuits, replayed in
        // process: the server's own engine is out of the harness's reach.
        match engine_jobs(&plans, &mut tr) {
            Ok((jobs, build_s)) => {
                layers.push("circuits.compile_s", "s", build_s, jobs.len());
                // Request ids are `connection << 32 | index`; replayed
                // jobs take the next block.
                let id_base = 2 << 32;
                counts.extend(crate::engine::replay(
                    &jobs,
                    id_base,
                    &mut tr,
                    &mut tally,
                    &mut layers,
                ));
            }
            Err(e) => return Outcome::failed(tally, e),
        }
    }

    let kinds: Vec<String> = Kind::ALL
        .iter()
        .map(|kind| {
            let ms: Vec<f64> = best
                .iter()
                .filter(|d| d.kind == *kind)
                .map(|d| d.latency_s * 1e3)
                .collect();
            format!(
                "\"{}\":{{\"requests\":{},\"p50_ms\":{}}}",
                kind.label(),
                ms.len(),
                crate::report::num(median(&ms))
            )
        })
        .collect();
    let timed: Vec<String> = passes
        .iter()
        .map(|p| crate::report::num(p.timed_s))
        .collect();
    let record = format!(
        "\"passes\":{PASSES},\"requests_per_pass\":{},\"timed_s\":[{}],\"p99_samples_beyond\":{},\"kinds\":{{{}}}",
        best.len(),
        timed.join(","),
        beyond(latency_ms.len(), 0.99),
        kinds.join(",")
    );
    Outcome {
        tally,
        e2e,
        layers,
        tracer: tr,
        counts,
        record,
        error: None,
    }
}

/// The `metrics` verb before and after a pass's timed phase, as one JSON
/// object.
fn boundary_counts(p: &Pass) -> String {
    format!(
        "{{\"metrics_before\":{},\"metrics_after\":{}}}",
        p.before, p.after
    )
}

/// `circuits.qasm_parse_us` and the `serve.*` metrics of `passes` of
/// `plans`, where `best` holds each request's fastest replay.
fn serve_layers(
    plans: &[(Vec<Planned>, usize); 2],
    passes: &[Pass],
    best: &[&Done],
    tally: &Tally,
    tr: &mut Tracer,
    layers: &mut Metrics,
) {
    let fresh: Vec<&&Done> = best
        .iter()
        .filter(|d| d.kind != Kind::Hit && d.server_s.is_some())
        .collect();
    let sim_ms: Vec<f64> = fresh
        .iter()
        .filter_map(|d| d.server_s)
        .map(|s| s * 1e3)
        .collect();
    let overhead_ms: Vec<f64> = fresh
        .iter()
        .filter_map(|d| d.server_s.map(|s| (d.latency_s - s) * 1e3))
        .collect();
    let qasm: Vec<&str> = plans
        .iter()
        .flat_map(|(seq, _)| seq.iter().filter_map(|p| p.qasm.as_deref()))
        .collect();
    let lines: Vec<&str> = plans
        .iter()
        .flat_map(|(seq, _)| seq.iter().map(|p| p.line.as_str()))
        .collect();
    let (parse_ns, n) = batched(tr, "circuits.qasm_parse", qasm.len(), || {
        for src in &qasm {
            let _ = black_box(aq_circuits::qasm::parse_qasm(black_box(src)));
        }
    });
    layers.push("circuits.qasm_parse_us", "us", parse_ns * 1e-3, n);
    let (parse_ns, n) = batched(tr, "serve.protocol.parse", lines.len(), || {
        for line in &lines {
            let _ = black_box(Request::parse(black_box(line)));
        }
    });
    layers.push("serve.protocol.parse_us", "us", parse_ns * 1e-3, n);
    layers.push("serve.sim_ms.p50", "ms", median(&sim_ms), sim_ms.len());
    layers.push(
        "serve.overhead_ms.p50",
        "ms",
        median(&overhead_ms),
        overhead_ms.len(),
    );
    layers.push(
        "serve.overhead_ms.p99",
        "ms",
        quantile(&overhead_ms, 0.99),
        overhead_ms.len(),
    );
    for kind in Kind::ALL {
        let ms: Vec<f64> = best
            .iter()
            .filter(|d| d.kind == kind)
            .map(|d| d.latency_s * 1e3)
            .collect();
        layers.push(
            format!("serve.latency_p50_ms.{}", kind.label()),
            "ms",
            median(&ms),
            ms.len(),
        );
    }
    let mut delta = ServerCounters::default();
    for p in passes {
        let counters = |text: &str| {
            Json::parse(text)
                .map(|j| server_counters(&j))
                .unwrap_or_default()
        };
        delta.add(&counters(&p.after), &counters(&p.before));
    }
    let timed_s: f64 = passes.iter().map(|p| p.timed_s).sum();
    let lookups = delta.cache_hits + delta.cache_misses;
    layers.push(
        "serve.result_cache.hit_rate",
        "ratio",
        delta.cache_hits / lookups,
        lookups as usize,
    );
    let jobs = delta.worker_jobs;
    layers.push(
        "serve.warm_reuse_rate",
        "ratio",
        delta.warm_reuses / jobs,
        jobs as usize,
    );
    layers.push(
        "serve.worker_busy_share.numeric",
        "ratio",
        delta.busy_numeric / timed_s,
        passes.len(),
    );
    layers.push(
        "serve.worker_busy_share.algebraic",
        "ratio",
        delta.busy_algebraic / timed_s,
        passes.len(),
    );
    layers.push(
        "serve.rejected",
        "count",
        tally.rejected as f64,
        tally.attempted as usize,
    );
}
