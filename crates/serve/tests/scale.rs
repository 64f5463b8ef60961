//! Worker-scaling gate: with the result cache off and 64 distinct
//! Grover-6 jobs, a 4-worker pool must serve at least as many jobs per
//! second as a 1-worker pool. On a single-core host a multi-worker
//! speedup is not measurable, so the test prints a skip notice and
//! passes.
//!
//! The only test in its binary, so no other test competes for the cores
//! while it times the two pools.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aq_dd::RunBudget;
use aq_serve::{
    CircuitSpec, Client, JobState, Response, SchemeClass, ServeConfig, ServeCore, SubmitRequest,
};
use aq_sim::SchemeSpec;

const JOBS: usize = 64;

/// Timed passes per pool size. The first multi-worker pass in a process
/// pays a start-up cost the later ones do not (measured on a 2-core host:
/// 1.00x of 1-worker jobs/s on the first 4-worker pass, 1.73-1.91x on the
/// next five), so the gate compares the fastest pass of each size.
const PASSES: usize = 3;

/// Closed-loop jobs/s of a `workers`-worker numeric pool: two client
/// threads per worker, each submitting one job and waiting for it until
/// the shared budget of [`JOBS`] is spent.
fn jobs_per_second(workers: usize) -> f64 {
    let checkpoint_dir = std::env::temp_dir().join(format!(
        "aq-serve-scale-test-{}-w{workers}",
        std::process::id()
    ));
    let cfg = ServeConfig {
        workers: vec![SchemeClass::Numeric; workers],
        queue_capacity: JOBS * 2,
        checkpoint_dir: checkpoint_dir.clone(),
        result_cache_capacity: 0,
        ..ServeConfig::default()
    };
    let core = ServeCore::start(cfg).expect("start worker pool");
    let client = Client::new(Arc::clone(&core));
    let remaining = Arc::new(AtomicUsize::new(JOBS));
    let t0 = Instant::now();
    let clients: Vec<_> = (0..workers * 2)
        .map(|s| {
            let client = client.clone();
            let remaining = Arc::clone(&remaining);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while remaining
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                    .is_ok()
                {
                    // vary the oracle so no two jobs share a circuit
                    let marked = (s as u64 * 31 + i * 7) % JOBS as u64;
                    i += 1;
                    let job = match client.submit(SubmitRequest {
                        circuit: CircuitSpec::Grover { n: 6, marked },
                        scheme: SchemeSpec::Numeric { eps: 1e-10 },
                        priority: 0,
                        budget: RunBudget::unlimited().with_max_nodes(5_000_000),
                        resume: None,
                        top_k: 1,
                        sample: None,
                    }) {
                        Response::Submitted { job } => job,
                        other => panic!("submission refused: {other:?}"),
                    };
                    match client.wait(job, Duration::from_secs(300)) {
                        Response::Status(report) => {
                            assert_eq!(report.state, JobState::Completed, "job {job}")
                        }
                        other => panic!("wait failed: {other:?}"),
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    let seconds = t0.elapsed().as_secs_f64();
    assert!(matches!(client.drain(), Response::Drained { .. }));
    let m = client.metrics();
    assert!(m.reconciles(), "metrics must reconcile: {m:?}");
    assert_eq!(m.completed, JOBS as u64);
    client.shutdown();
    let _ = std::fs::remove_dir_all(checkpoint_dir);
    JOBS as f64 / seconds
}

#[test]
fn four_workers_serve_at_least_as_fast_as_one() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores == 1 {
        println!(
            "scale gate: SKIPPED, available_parallelism() == 1; a multi-worker \
             speedup is not measurable on this machine"
        );
        return;
    }
    let (mut one, mut four) = (0.0f64, 0.0f64);
    for _ in 0..PASSES {
        one = one.max(jobs_per_second(1));
        four = four.max(jobs_per_second(4));
    }
    println!(
        "scale gate: 4 workers {four:.1} jobs/s vs 1 worker {one:.1} jobs/s ({:.2}x)",
        four / one
    );
    assert!(
        four >= one,
        "4-worker throughput {four:.1} jobs/s is below 1-worker throughput {one:.1} jobs/s"
    );
}
