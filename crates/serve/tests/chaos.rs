//! Deterministic chaos suite: seed-driven fault plans (worker kills,
//! session corruption, connection stalls, spurious wakeups) against the
//! self-healing serve stack. Every schedule is a pure function of its
//! seed, so each test asserts *exact* recovery properties:
//!
//! - the metrics identity `submitted == completed + aborted + rejected`
//!   holds at quiescence under every seeded schedule;
//! - recovered results are byte-identical to a fault-free run;
//! - every corruption that lands is caught by suspect-validation before
//!   the next warm reuse;
//! - a class that exhausts its restart budget turns explicitly unhealthy
//!   (refusals carry `retry_after_ms`, queued jobs are evicted) instead
//!   of hanging anything.

#![cfg(feature = "chaos")]

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aq_dd::RunBudget;
use aq_serve::{
    CircuitSpec, Client, FaultPlan, JobState, JobStatusReport, Response, RetryPolicy, SchemeClass,
    ServeConfig, ServeCore, StallPhase, SubmitRequest,
};
use aq_sim::SchemeSpec;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aq-chaos-test-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn submit(circuit: CircuitSpec, scheme: SchemeSpec) -> SubmitRequest {
    SubmitRequest {
        circuit,
        scheme,
        priority: 0,
        budget: RunBudget::unlimited().with_max_nodes(2_000_000),
        resume: None,
        top_k: 4,
        sample: None,
    }
}

fn submitted_id(response: Response) -> u64 {
    match response {
        Response::Submitted { job } => job,
        other => panic!("expected Submitted, got {other:?}"),
    }
}

fn wait_terminal(client: &Client, job: u64) -> JobStatusReport {
    match client.wait(job, Duration::from_secs(120)) {
        Response::Status(report) => {
            assert!(report.state.is_terminal(), "wait returned {report:?}");
            *report
        }
        other => panic!("expected Status for job {job}, got {other:?}"),
    }
}

/// Fast supervision/backoff timings so injected deaths heal in
/// milliseconds, not the production half-seconds.
fn fast_cfg(name: &str, workers: Vec<SchemeClass>) -> ServeConfig {
    ServeConfig {
        workers,
        checkpoint_dir: test_dir(name),
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(50),
        ..ServeConfig::default()
    }
}

/// The mixed workload the byte-identity tests replay: distinct circuits
/// (no result-cache crosstalk) across every scheme kind.
fn workload() -> Vec<(CircuitSpec, SchemeSpec)> {
    let mut jobs = Vec::new();
    for marked in 0..6 {
        jobs.push((
            CircuitSpec::Grover { n: 5, marked },
            SchemeSpec::Numeric { eps: 1e-10 },
        ));
    }
    for marked in 0..4 {
        jobs.push((CircuitSpec::Grover { n: 4, marked }, SchemeSpec::Qomega));
    }
    for marked in 4..6 {
        jobs.push((CircuitSpec::Grover { n: 4, marked }, SchemeSpec::Gcd));
    }
    jobs
}

/// Fingerprint of the parts of an outcome that must be bit-reproducible
/// (timings excluded, amplitude bits included).
fn fingerprint(report: &JobStatusReport) -> (u64, u64, Vec<(u64, u64)>) {
    let o = report.outcome.as_ref().expect("terminal outcome");
    (
        o.gates_applied as u64,
        o.final_nodes as u64,
        o.top_probabilities
            .iter()
            .map(|&(i, p)| (i, p.to_bits()))
            .collect(),
    )
}

#[cfg(feature = "lock-audit")]
fn assert_lock_graph_clean() {
    let cycles = aq_serve::lockaudit::detected_cycles();
    assert!(
        cycles.is_empty(),
        "lock-order cycles detected: {cycles:?}\ngraph:\n{}",
        aq_serve::lockaudit::dot_graph()
    );
    let hazards = aq_serve::lockaudit::detected_hazards();
    assert!(hazards.is_empty(), "lock hazards detected: {hazards:?}");
}

/// Runs the workload on a fault-free core and returns its fingerprints.
fn reference_fingerprints(name: &str) -> Vec<(u64, u64, Vec<(u64, u64)>)> {
    let core = ServeCore::start(fast_cfg(
        name,
        vec![SchemeClass::Numeric, SchemeClass::Algebraic],
    ))
    .expect("start reference pool");
    let client = Client::new(Arc::clone(&core));
    let prints = workload()
        .into_iter()
        .map(|(circuit, scheme)| {
            let id = submitted_id(client.submit(submit(circuit, scheme)));
            let report = wait_terminal(&client, id);
            assert_eq!(report.state, JobState::Completed);
            fingerprint(&report)
        })
        .collect();
    client.shutdown();
    prints
}

/// The core property: under three pinned seeds mixing kills, session
/// corruption and spurious wakeups, retried jobs all complete with
/// byte-identical results, and the metrics identity holds exactly.
#[test]
fn pinned_seeds_recover_byte_identical_results_and_reconcile() {
    let reference = reference_fingerprints("seeds-ref");
    for seed in [0xA11CE_u64, 0xB0B, 0xC0FFEE] {
        let mut cfg = fast_cfg(
            &format!("seeds-{seed}"),
            vec![SchemeClass::Numeric, SchemeClass::Algebraic],
        );
        cfg.restart_budget = 32;
        cfg.fault_plan = FaultPlan::seeded(seed)
            .kill_every(5)
            .corrupt_every(3)
            .wakeup_every(2);
        let core = ServeCore::start(cfg).expect("start chaos pool");
        let client = Client::new(Arc::clone(&core));
        let policy = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(50),
            seed,
        };

        for ((circuit, scheme), expected) in workload().into_iter().zip(&reference) {
            let response =
                client.run_with_retry(&submit(circuit, scheme), Duration::from_secs(120), &policy);
            let report = match response {
                Response::Status(report) => *report,
                other => panic!("seed {seed:#x}: expected Status, got {other:?}"),
            };
            assert_eq!(
                report.state,
                JobState::Completed,
                "seed {seed:#x}: job must complete after retries: {report:?}"
            );
            assert_eq!(
                &fingerprint(&report),
                expected,
                "seed {seed:#x}: recovered result diverged from the fault-free run"
            );
        }

        // Before drain: no class may have decayed into unhealthy — the
        // restart budget was sized to absorb every injected kill.
        let m = client.metrics();
        for h in &m.health {
            assert!(
                h.healthy,
                "seed {seed:#x}: class {} lost its budget: {h:?}",
                h.class.as_str()
            );
            assert_eq!(h.configured, h.live + h.respawning, "seed {seed:#x}: {h:?}");
        }
        let chaos = m.chaos.expect("an armed plan reports counters");
        assert_eq!(
            m.worker_deaths, chaos.kills,
            "seed {seed:#x}: every injected kill is a detected death (and nothing else died)"
        );
        assert_eq!(m.worker_respawns, m.worker_deaths, "seed {seed:#x}");

        match client.drain() {
            Response::Drained { .. } => {}
            other => panic!("seed {seed:#x}: expected Drained, got {other:?}"),
        }
        let m = client.metrics();
        assert!(
            m.reconciles(),
            "seed {seed:#x}: metrics must reconcile: {m:?}"
        );
        // Aborts are exactly the transient kill recoveries: every other
        // submission completed (possibly via the result cache on retry).
        assert_eq!(m.aborted, m.worker_deaths, "seed {seed:#x}: {m:?}");
        // Corruption accounting: catches never outnumber landed
        // corruptions (a suspect lane can absorb several corruptions and
        // be caught once, or sit parked unreused until drain), every
        // catch quarantines and rebuilds the lane cold, and — per the
        // byte-identity checks above — none ever leaks into a result.
        let caught: u64 = m.workers.iter().map(|w| w.stats.validate_failures).sum();
        let rebuilt: u64 = m.workers.iter().map(|w| w.stats.rebuilds).sum();
        let quarantined: u64 = m.workers.iter().map(|w| w.stats.quarantines).sum();
        let chaos = m.chaos.expect("counters");
        assert!(
            chaos.corruptions > 0,
            "seed {seed:#x}: no corruption landed"
        );
        assert!(
            caught <= chaos.corruptions,
            "seed {seed:#x}: more validate failures than corruptions landed"
        );
        assert!(
            quarantined >= caught && rebuilt >= caught,
            "seed {seed:#x}: every caught corruption must quarantine and rebuild \
             its lane (caught {caught}, quarantined {quarantined}, rebuilt {rebuilt})"
        );
        assert!(
            chaos.wakeups > 0,
            "seed {seed:#x}: the wakeup plan never fired"
        );
        #[cfg(feature = "lock-audit")]
        assert_lock_graph_clean();
    }
}

/// A targeted kill: the job dies with a `transient:` abort, the worker
/// respawns within its backoff schedule, and resubmission completes
/// bit-identically to a fault-free run.
#[test]
fn killed_worker_respawns_and_resubmission_is_bit_identical() {
    // Fault-free reference for the victim circuit.
    let reference = {
        let core = ServeCore::start(fast_cfg("kill-ref", vec![SchemeClass::Numeric]))
            .expect("start reference pool");
        let client = Client::new(Arc::clone(&core));
        let id = submitted_id(client.submit(submit(
            CircuitSpec::Grover { n: 5, marked: 19 },
            SchemeSpec::Numeric { eps: 1e-10 },
        )));
        let report = wait_terminal(&client, id);
        client.shutdown();
        fingerprint(&report)
    };

    let mut cfg = fast_cfg("kill-one", vec![SchemeClass::Numeric]);
    cfg.fault_plan = FaultPlan::seeded(7).kill_job(2);
    let core = ServeCore::start(cfg).expect("start chaos pool");
    let client = Client::new(Arc::clone(&core));

    // Job 1 completes untouched.
    let first = submitted_id(client.submit(submit(
        CircuitSpec::Grover { n: 5, marked: 7 },
        SchemeSpec::Numeric { eps: 1e-10 },
    )));
    assert_eq!(wait_terminal(&client, first).state, JobState::Completed);

    // Job 2 is killed mid-claim: the supervisor must recover it as a
    // retryable `transient:` abort, never leaving it running.
    let victim = submitted_id(client.submit(submit(
        CircuitSpec::Grover { n: 5, marked: 19 },
        SchemeSpec::Numeric { eps: 1e-10 },
    )));
    assert_eq!(victim, 2, "the plan targets job id 2");
    let report = wait_terminal(&client, victim);
    assert_eq!(report.state, JobState::Aborted);
    let abort = report.outcome.as_ref().unwrap().aborted.as_ref().unwrap();
    assert!(
        abort.reason.starts_with("transient:"),
        "kill recovery must be marked transient, got: {}",
        abort.reason
    );
    assert!(!abort.evicted);

    // Resubmission runs on the respawned worker, bit-identical.
    let retry = submitted_id(client.submit(submit(
        CircuitSpec::Grover { n: 5, marked: 19 },
        SchemeSpec::Numeric { eps: 1e-10 },
    )));
    let retry_report = wait_terminal(&client, retry);
    assert_eq!(retry_report.state, JobState::Completed);
    assert_eq!(
        fingerprint(&retry_report),
        reference,
        "post-respawn result diverged from the fault-free run"
    );

    let m = client.metrics();
    assert_eq!(m.worker_deaths, 1);
    assert_eq!(m.worker_respawns, 1);
    let numeric = m
        .health
        .iter()
        .find(|h| h.class == SchemeClass::Numeric)
        .unwrap();
    assert!(numeric.healthy);
    assert_eq!(numeric.live, 1, "the respawned worker is live again");
    assert_eq!(numeric.restarts_used, 1);
    client.shutdown();
    let m = client.metrics();
    assert!(m.reconciles(), "metrics must reconcile: {m:?}");
}

/// Restart-budget exhaustion: the class flips explicitly unhealthy, its
/// queued jobs are evicted with a reason, and new submissions are
/// refused with the configured `retry_after_ms` hint. Nothing hangs.
#[test]
fn budget_exhaustion_flips_class_unhealthy_and_refusals_carry_retry_after() {
    let mut cfg = fast_cfg("budget", vec![SchemeClass::Numeric]);
    cfg.restart_budget = 1;
    cfg.unhealthy_retry_after = Duration::from_millis(1234);
    cfg.fault_plan = FaultPlan::seeded(3).kill_every(1); // every job kills
    let core = ServeCore::start(cfg).expect("start chaos pool");
    let client = Client::new(Arc::clone(&core));
    let spec = |marked| {
        submit(
            CircuitSpec::Grover { n: 4, marked },
            SchemeSpec::Numeric { eps: 1e-10 },
        )
    };

    // Death 1 spends the whole budget on one respawn.
    let j1 = submitted_id(client.submit(spec(1)));
    let r1 = wait_terminal(&client, j1);
    assert_eq!(r1.state, JobState::Aborted);
    assert!(r1
        .outcome
        .as_ref()
        .unwrap()
        .aborted
        .as_ref()
        .unwrap()
        .reason
        .starts_with("transient:"));

    // Death 2 retires the slot; the still-queued job must be swept out,
    // not stranded.
    let j2 = submitted_id(client.submit(spec(2)));
    let j3 = submitted_id(client.submit(spec(3)));
    let r2 = wait_terminal(&client, j2);
    assert_eq!(r2.state, JobState::Aborted);
    assert!(r2
        .outcome
        .as_ref()
        .unwrap()
        .aborted
        .as_ref()
        .unwrap()
        .reason
        .starts_with("transient:"));
    let r3 = wait_terminal(&client, j3);
    assert_eq!(r3.state, JobState::Aborted);
    let a3 = r3.outcome.as_ref().unwrap().aborted.as_ref().unwrap();
    assert!(a3.evicted, "queued job on a dead class must be evicted");
    assert!(
        a3.reason.contains("restart budget exhausted"),
        "eviction must say why: {}",
        a3.reason
    );

    // New submissions are refused with the configured hint.
    match client.submit(spec(4)) {
        Response::Rejected {
            reason,
            retry_after_ms,
        } => {
            assert!(reason.contains("unhealthy"), "reason: {reason}");
            assert_eq!(retry_after_ms, Some(1234));
        }
        other => panic!("expected Rejected with hint, got {other:?}"),
    }

    let m = client.metrics();
    assert_eq!(m.worker_deaths, 2);
    assert_eq!(m.worker_respawns, 1, "one respawn, then the budget is dry");
    let numeric = m
        .health
        .iter()
        .find(|h| h.class == SchemeClass::Numeric)
        .unwrap();
    assert!(!numeric.healthy, "class must be explicitly unhealthy");
    assert_eq!(numeric.live, 0);
    assert_eq!(numeric.restarts_used, 1);
    assert_eq!(numeric.restart_budget, 1);
    assert!(m.reconciles(), "metrics must reconcile: {m:?}");
    assert_eq!(m.aborted, 3);
    assert_eq!(m.rejected, 1);
    #[cfg(feature = "lock-audit")]
    assert_lock_graph_clean();
}

/// Corrupting every parked session: suspect-validation catches each
/// corruption before the next warm reuse, the lane rebuilds cold, and
/// results stay byte-identical to a fault-free run.
#[test]
fn every_landed_corruption_is_caught_before_warm_reuse() {
    const JOBS: u64 = 4;
    let clean: Vec<_> = {
        let core = ServeCore::start(fast_cfg("corrupt-ref", vec![SchemeClass::Numeric]))
            .expect("start reference pool");
        let client = Client::new(Arc::clone(&core));
        let prints = (0..JOBS)
            .map(|marked| {
                let id = submitted_id(client.submit(submit(
                    CircuitSpec::Grover { n: 5, marked },
                    SchemeSpec::Numeric { eps: 1e-10 },
                )));
                fingerprint(&wait_terminal(&client, id))
            })
            .collect();
        client.shutdown();
        prints
    };

    let mut cfg = fast_cfg("corrupt", vec![SchemeClass::Numeric]);
    cfg.fault_plan = FaultPlan::seeded(0xBAD).corrupt_every(1);
    let core = ServeCore::start(cfg).expect("start chaos pool");
    let client = Client::new(Arc::clone(&core));
    for (marked, expected) in clean.iter().enumerate() {
        let id = submitted_id(client.submit(submit(
            CircuitSpec::Grover {
                n: 5,
                marked: marked as u64,
            },
            SchemeSpec::Numeric { eps: 1e-10 },
        )));
        let report = wait_terminal(&client, id);
        assert_eq!(report.state, JobState::Completed);
        assert_eq!(
            &fingerprint(&report),
            expected,
            "job {marked}: corruption leaked into a result"
        );
    }

    let m = client.metrics();
    let chaos = m.chaos.expect("counters");
    // Every job's parked manager was corrupted; every corruption except
    // the final one (never reused) was caught by validation, quarantined
    // and rebuilt cold. No warm reuse ever saw damaged state.
    assert_eq!(chaos.corruptions, JOBS);
    let w = &m.workers[0].stats;
    assert_eq!(w.validate_failures, JOBS - 1);
    assert_eq!(w.quarantines, JOBS - 1);
    assert_eq!(w.rebuilds, JOBS - 1);
    assert_eq!(w.warm_reuses, 0, "no corrupted manager may be reused warm");
    client.shutdown();
    let m = client.metrics();
    assert!(m.reconciles(), "metrics must reconcile: {m:?}");
}

/// The TCP stack under connection stalls and spurious wakeups: every
/// request is still answered correctly and the metrics verb reconciles.
#[test]
fn tcp_under_stalls_and_wakeups_serves_everything_and_reconciles() {
    use aq_serve::{Json, Server, TcpClient};
    let mut cfg = fast_cfg(
        "tcp-stall",
        vec![SchemeClass::Numeric, SchemeClass::Algebraic],
    );
    cfg.fault_plan = FaultPlan::seeded(0x7CF)
        .stall_every(2, Duration::from_millis(30))
        .wakeup_every(2);
    let core = ServeCore::start(cfg).expect("start chaos pool");
    let server = Server::bind(Arc::clone(&core), 0).expect("bind");
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());

    let submit_line = |marked: u64| {
        format!(
            "{{\"verb\":\"submit\",\"circuit\":\"grover\",\"n\":4,\"marked\":{marked},\
             \"budget\":{{\"max_nodes\":2000000}}}}"
        )
    };
    // Six jobs across three connections; every other connection is
    // stalled in a random phase for 30ms.
    let mut jobs = Vec::new();
    for c in 0..3u64 {
        let mut client = TcpClient::connect(addr).expect("connect");
        for k in 0..2u64 {
            let resp = client.roundtrip(&submit_line(c * 2 + k)).expect("submit");
            let parsed = Json::parse(&resp).expect("json");
            let id = parsed.get("job").and_then(Json::as_u64).expect("job id");
            jobs.push(id);
        }
    }
    let mut client = TcpClient::connect(addr).expect("connect");
    for id in jobs {
        let resp = client
            .roundtrip(&format!(
                "{{\"verb\":\"wait\",\"job\":{id},\"timeout_secs\":120}}"
            ))
            .expect("wait");
        let parsed = Json::parse(&resp).expect("json");
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            parsed.get("state").and_then(Json::as_str),
            Some("completed"),
            "job {id}: {resp}"
        );
    }
    let metrics = client.roundtrip("{\"verb\":\"metrics\"}").expect("metrics");
    let m = Json::parse(&metrics).expect("json");
    let field = |k: &str| m.get(k).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(
        field("submitted"),
        field("completed") + field("aborted") + field("rejected"),
        "wire metrics identity: {metrics}"
    );
    let chaos = m.get("chaos").expect("chaos counters in metrics");
    assert!(
        chaos.get("stalls").and_then(Json::as_u64).unwrap_or(0) >= 2,
        "stall plan never fired: {metrics}"
    );
    let shutdown = client
        .roundtrip("{\"verb\":\"shutdown\"}")
        .expect("shutdown");
    assert!(shutdown.contains("\"state\":\"stopped\""));
    server_thread.join().unwrap().expect("server run");
}

/// A write-stalled connection at shutdown is reaped after *its own*
/// flush grace — and counted — instead of holding the process (and every
/// other connection's flush) hostage.
#[test]
fn slow_connection_is_reaped_at_shutdown_and_counted() {
    use aq_serve::{Server, TcpClient};
    let mut cfg = fast_cfg("reap", vec![SchemeClass::Numeric]);
    cfg.shutdown_conn_flush_grace = Duration::from_millis(50);
    // Connection 0 (the victim) is write-stalled far past the grace.
    cfg.fault_plan = FaultPlan::seeded(1)
        .stall_every(2, Duration::from_secs(30))
        .stall_phase(StallPhase::Write);
    let core = ServeCore::start(cfg).expect("start chaos pool");
    let server = Server::bind(Arc::clone(&core), 0).expect("bind");
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());

    // The victim's response can never flush.
    let mut victim = TcpClient::connect(addr).expect("connect victim");
    victim.send_raw(b"{\"verb\":\"metrics\"}\n").expect("send");

    // The controller (connection 1, unstalled) shuts the server down and
    // still gets its response despite the victim's stuck write buffer.
    let mut controller = TcpClient::connect(addr).expect("connect controller");
    let resp = controller
        .roundtrip("{\"verb\":\"shutdown\"}")
        .expect("shutdown roundtrip");
    assert!(resp.contains("\"state\":\"stopped\""), "got: {resp}");
    server_thread.join().unwrap().expect("server run");

    let m = core.metrics_report();
    assert_eq!(
        m.connections_reaped_at_shutdown, 1,
        "the stalled victim must be reaped and counted: {m:?}"
    );
    assert!(m.reconciles(), "metrics must reconcile: {m:?}");
}

/// A closed loop under a 1 %-per-job kill plan: 4 workers, 8 concurrent
/// retrying clients, 64 distinct Grover-6 jobs. The result cache is off,
/// so every submission reaches a worker and the killed job ids depend on
/// the seed alone (this seed kills ids 10, 19, 54 and 63).
#[test]
fn one_percent_kill_plan_under_retrying_clients_completes_every_job() {
    const JOBS: usize = 64;
    const SEED: u64 = 0xCAFE_BABE;
    let mut cfg = fast_cfg("kill-per-mille", vec![SchemeClass::Numeric; 4]);
    cfg.queue_capacity = JOBS * 2;
    cfg.result_cache_capacity = 0;
    cfg.restart_budget = 10_000;
    cfg.fault_plan = FaultPlan::seeded(SEED).kill_per_mille(10);
    let core = ServeCore::start(cfg).expect("start chaos pool");
    let client = Client::new(Arc::clone(&core));

    let remaining = Arc::new(AtomicUsize::new(JOBS));
    let clients: Vec<_> = (0..8u64)
        .map(|s| {
            let client = client.clone();
            let remaining = Arc::clone(&remaining);
            std::thread::spawn(move || {
                let policy = RetryPolicy {
                    max_attempts: 8,
                    base: Duration::from_millis(5),
                    cap: Duration::from_millis(100),
                    seed: SEED ^ s,
                };
                let mut i = 0u64;
                while remaining
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                    .is_ok()
                {
                    let marked = (s * 31 + i * 7) % JOBS as u64;
                    i += 1;
                    let req = submit(
                        CircuitSpec::Grover { n: 6, marked },
                        SchemeSpec::Numeric { eps: 1e-10 },
                    );
                    match client.run_with_retry(&req, Duration::from_secs(300), &policy) {
                        Response::Status(report) => {
                            assert_eq!(report.state, JobState::Completed, "{report:?}")
                        }
                        other => panic!("retry loop gave up: {other:?}"),
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    match client.drain() {
        Response::Drained { .. } => {}
        other => panic!("expected Drained, got {other:?}"),
    }
    let m = client.metrics();
    assert!(m.reconciles(), "metrics must reconcile: {m:?}");
    assert_eq!(m.completed, JOBS as u64, "{m:?}");
    assert_eq!(m.worker_deaths, 4, "seed kills ids 10, 19, 54, 63: {m:?}");
    assert_eq!(m.worker_respawns, m.worker_deaths, "{m:?}");
    assert_eq!(m.chaos.expect("counters").kills, m.worker_deaths);
    // Each kill aborts one job as transient and its client retries it
    // once; nothing is refused, so every submission beyond the 64 jobs
    // is exactly one such retry.
    assert_eq!(m.rejected, 0, "{m:?}");
    assert_eq!(m.aborted, m.worker_deaths, "{m:?}");
    assert_eq!(m.submitted - JOBS as u64, m.aborted, "{m:?}");
    client.shutdown();
    #[cfg(feature = "lock-audit")]
    assert_lock_graph_clean();
}
