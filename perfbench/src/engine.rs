//! The `grover` and `gse` workloads: cold, single-threaded simulations
//! under the three weight schemes, interleaved job by job so that drift
//! during a run hits all three alike, and timed on the simulating
//! thread's CPU clock.

use std::time::Instant;

use aq_circuits::cliffordt::CliffordTCompiler;
use aq_circuits::{grover, grover_iterations, gse, Circuit, GseParams};
use aq_dd::{
    Edge, EngineStatistics, GcdContext, Manager, NormScheme, NumericContext, QomegaContext, VecId,
    WeightContext,
};
use aq_rings::Complex64;
use aq_sim::{SimOptions, Simulator};

use crate::host::{peak_rss_mb, reset_peak_rss, thread_cpu_s};
use crate::kernels::{time_kernels, Operands};
use crate::report::{Metrics, Tally};
use crate::rng::Rng;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{Args, Outcome, Workload};

/// Numeric amplitudes may differ from the exact ones by at most this.
const NUMERIC_TOLERANCE: f64 = 1e-9;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Grover oracles per run.
const ORACLES: usize = 4;

/// The three weight schemes of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// IEEE doubles, ε = 1e-10, largest-magnitude normalization.
    Numeric,
    /// Exact Q[ω] weights (Alg. 2).
    Qomega,
    /// Exact D[ω] weights with GCD normalization (Alg. 3).
    Gcd,
}

impl Scheme {
    const ALL: [Scheme; 3] = [Scheme::Numeric, Scheme::Qomega, Scheme::Gcd];

    /// Metric-name suffix.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Numeric => "numeric",
            Scheme::Qomega => "qomega",
            Scheme::Gcd => "gcd",
        }
    }
}

/// What the harness needs from each weight context beyond the engine's
/// own interface.
trait SchemeContext: WeightContext {
    const SCHEME: Scheme;
    fn make() -> Self;
    /// Whether `⟨ψ|ψ⟩` is exactly one; `None` where the ring is not exact.
    fn norm_is_one(m: &mut Manager<Self>, e: &Edge<VecId>) -> Result<Option<bool>, String>;
    /// Appends exact basis-state probabilities of `e` to `ops`.
    fn collect_operands(m: &Manager<Self>, e: &Edge<VecId>, ops: &mut Operands);
}

impl SchemeContext for NumericContext {
    const SCHEME: Scheme = Scheme::Numeric;
    fn make() -> Self {
        NumericContext::with_eps_and_scheme(1e-10, NormScheme::MaxMagnitude)
    }
    fn norm_is_one(_: &mut Manager<Self>, _: &Edge<VecId>) -> Result<Option<bool>, String> {
        Ok(None)
    }
    fn collect_operands(_: &Manager<Self>, _: &Edge<VecId>, _: &mut Operands) {}
}

impl SchemeContext for QomegaContext {
    const SCHEME: Scheme = Scheme::Qomega;
    fn make() -> Self {
        QomegaContext::new()
    }
    fn norm_is_one(m: &mut Manager<Self>, e: &Edge<VecId>) -> Result<Option<bool>, String> {
        let nsq = m.try_norm_sqr_exact(e).map_err(|err| err.to_string())?;
        Ok(Some(nsq.is_one()))
    }
    fn collect_operands(m: &Manager<Self>, e: &Edge<VecId>, ops: &mut Operands) {
        ops.qomega
            .extend(probabilities(m, e).filter(|p| !p.is_zero()));
    }
}

impl SchemeContext for GcdContext {
    const SCHEME: Scheme = Scheme::Gcd;
    fn make() -> Self {
        GcdContext::new()
    }
    fn norm_is_one(m: &mut Manager<Self>, e: &Edge<VecId>) -> Result<Option<bool>, String> {
        let nsq = m.try_norm_sqr_exact(e).map_err(|err| err.to_string())?;
        Ok(Some(nsq.is_one()))
    }
    fn collect_operands(m: &Manager<Self>, e: &Edge<VecId>, ops: &mut Operands) {
        ops.domega
            .extend(probabilities(m, e).filter(|p| !p.is_zero()));
    }
}

/// Exact probabilities of up to 64 evenly spaced basis states.
fn probabilities<'a, W: WeightContext>(
    m: &'a Manager<W>,
    e: &'a Edge<VecId>,
) -> impl Iterator<Item = W::Value> + 'a {
    let states = 1u64 << m.n_qubits().min(20);
    let count = states.min(64);
    (0..count).map(move |i| m.basis_probability(e, i * (states / count)))
}

/// One finished engine job.
#[derive(Debug)]
struct JobRun {
    scheme: Scheme,
    gates: usize,
    cpu_s: f64,
    wall_s: f64,
    final_nodes: usize,
    peak_bits: u64,
    stats: EngineStatistics,
    amplitudes: Vec<Complex64>,
    norm_is_one: Option<bool>,
}

/// Step latencies in seconds: per input and scheme the fastest time each
/// gate took in the run, and in traced runs every timed step per scheme.
#[derive(Debug, Default)]
struct Steps {
    all: [Vec<f64>; 3],
    best: Vec<[Vec<f64>; 3]>,
}

impl Steps {
    fn absorb(&mut self, input: usize, s: Scheme, job: &[f64], keep_all: bool) {
        if keep_all {
            self.all[s as usize].extend_from_slice(job);
        }
        if self.best.len() <= input {
            self.best.resize_with(input + 1, Default::default);
        }
        let best = &mut self.best[input][s as usize];
        best.resize(job.len(), f64::INFINITY);
        for (b, t) in best.iter_mut().zip(job) {
            *b = b.min(*t);
        }
    }
}

/// Simulates `circuit` from |0…0⟩ on a cold simulator, then reads what
/// the checks need. Only the step loop is inside the CPU-timed window.
fn simulate<W: SchemeContext>(
    circuit: &Circuit,
    job: u64,
    tr: &mut Tracer,
    steps: &mut Vec<f64>,
    operands: Option<&mut Operands>,
) -> Result<JobRun, String> {
    let span = tr.begin("sim.job", job);
    let wall0 = Instant::now();
    let cpu0 = thread_cpu_s();
    let options = SimOptions {
        record_trace: false,
        ..SimOptions::default()
    };
    let mut sim = Simulator::with_options(W::make(), circuit, options);
    loop {
        let t0 = Instant::now();
        let step = sim.try_step();
        let t1 = Instant::now();
        match step {
            Ok(true) => {
                steps.push((t1 - t0).as_secs_f64());
                tr.leaf("sim.step", job, t0, t1);
            }
            Ok(false) => break,
            Err(e) => {
                tr.end(span);
                return Err(format!("job {job} ({}): {e}", W::SCHEME.label()));
            }
        }
    }
    let cpu_s = thread_cpu_s() - cpu0;
    let wall_s = wall0.elapsed().as_secs_f64();
    tr.end(span);

    let check = tr.begin("core.check", job);
    let state = sim.state();
    let final_nodes = sim.nodes();
    let stats = sim.statistics();
    let peak_bits = sim.manager().max_weight_bits(&state);
    let norm_is_one = W::norm_is_one(sim.manager_mut(), &state);
    let amplitudes = sim.manager_mut().amplitudes(&state);
    if let Some(ops) = operands {
        W::collect_operands(sim.manager(), &state, ops);
    }
    tr.end(check);
    let norm_is_one = norm_is_one?;
    Ok(JobRun {
        scheme: W::SCHEME,
        gates: sim.gates_applied(),
        cpu_s,
        wall_s,
        final_nodes,
        peak_bits,
        stats,
        amplitudes,
        norm_is_one,
    })
}

fn simulate_scheme(
    s: Scheme,
    circuit: &Circuit,
    job: u64,
    tr: &mut Tracer,
    steps: &mut Vec<f64>,
    operands: Option<&mut Operands>,
) -> Result<JobRun, String> {
    match s {
        Scheme::Numeric => simulate::<NumericContext>(circuit, job, tr, steps, operands),
        Scheme::Qomega => simulate::<QomegaContext>(circuit, job, tr, steps, operands),
        Scheme::Gcd => simulate::<GcdContext>(circuit, job, tr, steps, operands),
    }
}

/// The exact answer every job of an input is checked against: the first
/// Q[ω] run of that input.
#[derive(Debug)]
struct Reference {
    amplitudes: Vec<Complex64>,
    final_nodes: usize,
}

/// Checks one job: exact runs must have norm² exactly 1 and match the
/// reference node for node and bit for bit; numeric runs must lie within
/// [`NUMERIC_TOLERANCE`] of it. Returns the largest amplitude error.
fn check(run: &JobRun, reference: &Reference) -> Result<f64, String> {
    if run.amplitudes.len() != reference.amplitudes.len() {
        return Err(format!("{}: wrong amplitude count", run.scheme.label()));
    }
    let pairs = run.amplitudes.iter().zip(&reference.amplitudes);
    if run.scheme == Scheme::Numeric {
        let err = pairs.map(|(a, r)| (*a - *r).abs()).fold(0.0, f64::max);
        return if err <= NUMERIC_TOLERANCE {
            Ok(err)
        } else {
            Err(format!("numeric amplitudes off by {err:e}"))
        };
    }
    if run.norm_is_one != Some(true) {
        return Err(format!("{}: exact norm² is not 1", run.scheme.label()));
    }
    if run.final_nodes != reference.final_nodes {
        return Err(format!(
            "{}: {} final nodes, reference has {}",
            run.scheme.label(),
            run.final_nodes,
            reference.final_nodes
        ));
    }
    let differing = pairs
        .filter(|(a, r)| a.re.to_bits() != r.re.to_bits() || a.im.to_bits() != r.im.to_bits())
        .count();
    if differing > 0 {
        return Err(format!(
            "{}: {differing} amplitudes differ from Q[ω]",
            run.scheme.label()
        ));
    }
    Ok(0.0)
}

/// The run's seeded input circuits and the CPU seconds the circuits
/// crate took to produce them: `grover()` on grover, the Clifford+T
/// compile on gse.
///
/// Each input is one instance of the workload's circuit family. A run
/// averages over several, so that no single instance's cost sets the
/// run's figures.
fn build_inputs(args: &Args, tr: &mut Tracer) -> (Vec<Circuit>, f64) {
    let mut rng = Rng::new(args.seed, 1);
    match args.workload {
        Workload::Grover => {
            // `marked` has n/2 one-bits, and its zero bits, where the
            // oracle's X gates act, sit at positions summing to the middle
            // value n(n-1)/4: the gate count is then the same for every
            // input. Bit 0 is set: with an X on qubit 0 the exact schemes
            // intern 12–20 % more weights (for n = 12, 8,147–8,450 Q[ω]
            // weights against 7,253–7,500), a second cost class. For
            // n = 12 there are 29 such elements, all allocating 27,606
            // nodes.
            let n: u32 = if args.toy { 8 } else { 12 };
            let mut candidates: Vec<u64> = (0..1u64 << n)
                .filter(|m| {
                    let zeros: u32 = (0..n).filter(|b| m >> b & 1 == 0).sum();
                    m & 1 == 1 && m.count_ones() == n / 2 && 4 * zeros == n * (n - 1)
                })
                .collect();
            rng.shuffle(&mut candidates);
            let span = tr.begin("circuits.grover", 0);
            let cpu0 = thread_cpu_s();
            let inputs = candidates
                .iter()
                .take(ORACLES)
                .map(|&m| grover(n, m))
                .collect();
            let build_s = thread_cpu_s() - cpu0;
            tr.end(span);
            (inputs, build_s)
        }
        Workload::Gse => {
            // The inputs are the four Hartree–Fock start states of the
            // 2-qubit system register, in seeded order: their GCD costs
            // differ by up to 10 %, so every run takes all four.
            let (syllables, bits, prefix) = if args.toy { (6, 2, 200) } else { (12, 4, 2000) };
            let mut states: Vec<u64> = (0..4).collect();
            rng.shuffle(&mut states);
            let span = tr.begin("circuits.compile", 0);
            let cpu0 = thread_cpu_s();
            let mut compiler = CliffordTCompiler::new(syllables);
            let mut inputs = Vec::new();
            for initial_system_state in states {
                let params = GseParams {
                    precision_bits: bits,
                    initial_system_state,
                    ..GseParams::default()
                };
                let (compiled, _) = compiler.compile(&gse(&params));
                let mut c = Circuit::new(compiled.n_qubits());
                for op in compiled.ops().iter().take(prefix) {
                    c.push(op.clone());
                }
                inputs.push(c);
            }
            let compile_s = thread_cpu_s() - cpu0;
            tr.end(span);
            (inputs, compile_s)
        }
        Workload::Serve => unreachable!("serve is not an engine workload"),
    }
}

/// Runs the `grover` or `gse` workload.
pub fn run(args: &Args) -> Outcome {
    let epoch = Instant::now();
    let mut tr = Tracer::new(args.trace, epoch);
    let mut tally = Tally::default();
    let mut job = 0u64;
    let mut max_numeric_err: f64 = 0.0;

    // Set-up: the inputs (and the gse compile), then one untimed job per
    // scheme on the first input, checked against its Q[ω] answer.
    let mut setup_s = Vec::new();
    let mut compile_s = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUPS {
        let span = tr.begin("setup", 0);
        let cpu0 = thread_cpu_s();
        let (built, compile) = build_inputs(args, &mut tr);
        compile_s.push(compile);
        let mut reference = None;
        for s in [Scheme::Qomega, Scheme::Gcd, Scheme::Numeric] {
            job += 1;
            let outcome = simulate_scheme(s, &built[0], job, &mut tr, &mut Vec::new(), None)
                .and_then(|run| check_against(&mut reference, &run))
                .map(|e| max_numeric_err = max_numeric_err.max(e));
            tally.record(outcome);
        }
        setup_s.push(thread_cpu_s() - cpu0);
        tr.end(span);
        inputs = built;
    }
    let setup_rss = peak_rss_mb(std::process::id());
    let reset = reset_peak_rss(std::process::id());

    // Timed phase: a fixed number of rounds, cycling through the inputs so
    // that each input's jobs spread over the whole run. A round interleaves
    // the schemes job by job; numeric jobs are 10–40× shorter, so it runs
    // several of them.
    const N: Scheme = Scheme::Numeric;
    let pattern: &[Scheme] = match args.workload {
        Workload::Grover => &[
            Scheme::Qomega,
            N,
            N,
            N,
            N,
            N,
            N,
            N,
            Scheme::Gcd,
            N,
            N,
            N,
            N,
            N,
            N,
            N,
        ],
        _ => &[
            Scheme::Qomega,
            N,
            N,
            N,
            N,
            N,
            N,
            N,
            N,
            Scheme::Gcd,
            N,
            N,
            N,
            N,
            N,
            N,
            N,
            N,
        ],
    };
    let rounds = if args.toy {
        inputs.len()
    } else {
        match args.workload {
            Workload::Grover => (args.seconds as usize * 8).div_ceil(5),
            _ => (args.seconds as usize * 4).div_ceil(5),
        }
    };
    let mut runs: Vec<(usize, JobRun)> = Vec::new();
    let mut references: Vec<Option<Reference>> = inputs.iter().map(|_| None).collect();
    let mut steps = Steps::default();
    let mut operands = Operands::default();
    let mut corrupt = args.corrupt;
    for round in 0..rounds {
        let k = round % inputs.len();
        for &s in pattern {
            job += 1;
            let mut job_steps = Vec::with_capacity(inputs[k].len());
            let first = !runs.iter().any(|(_, r)| r.scheme == s);
            let ops = (args.trace && first).then_some(&mut operands);
            let outcome = simulate_scheme(s, &inputs[k], job, &mut tr, &mut job_steps, ops)
                .and_then(|mut run| {
                    if corrupt && s == Scheme::Gcd {
                        corrupt = false;
                        run.amplitudes[0].re = f64::from_bits(run.amplitudes[0].re.to_bits() ^ 1);
                    }
                    let e = check_against(&mut references[k], &run)?;
                    max_numeric_err = max_numeric_err.max(e);
                    steps.absorb(k, s, &job_steps, args.trace);
                    // Checked; what the harness keeps must not weigh on
                    // `peak_rss_mb`.
                    run.amplitudes = Vec::new();
                    runs.push((k, run));
                    Ok(())
                });
            tally.record(outcome);
        }
    }
    let peak_rss = reset.and_then(|()| peak_rss_mb(std::process::id()));

    let mut e2e = Metrics::default();
    e2e.push("setup_s", "s", median(&setup_s), setup_s.len());
    e2e.push("setup_peak_rss_mb", "MB", setup_rss.unwrap_or(f64::NAN), 1);
    e2e.push("peak_rss_mb", "MB", peak_rss.unwrap_or(f64::NAN), 1);
    // Every job of an input and scheme replays the same gates from the
    // same cold state, so gate i does identical work each time. The
    // host's speed for this code drifts between levels up to 40 % apart
    // (shared caches and cores of a virtual machine), which moves a
    // run's median job as much; the fastest time each gate took in the
    // run holds. A scheme's rate is its gates over the sum of those
    // times, summed over the inputs.
    let mut ideal_s = 0.0;
    for s in Scheme::ALL {
        let (mut gates, mut best_s) = (0usize, 0.0);
        for per_input in &steps.best {
            let best = &per_input[s as usize];
            gates += best.len();
            best_s += best.iter().sum::<f64>();
        }
        let jobs = runs.iter().filter(|(_, r)| r.scheme == s).count();
        e2e.push(
            format!("gates_per_s.{}", s.label()),
            "1/s",
            gates as f64 / best_s,
            jobs,
        );
        ideal_s += best_s * (jobs as f64 / steps.best.len() as f64);
    }
    e2e.push("jobs_per_s", "1/s", runs.len() as f64 / ideal_s, runs.len());
    // Latency is timed under Q[ω] (Alg. 2), from each gate's fastest step
    // in the run, pooled over the inputs. Numeric steps are memory-bound
    // and follow the host's drift: their per-gate p99 on grover moved 12 %
    // between runs where Q[ω]'s moved 3 %. On gse a request is one gate.
    // On grover it is one iteration, an oracle query plus the diffusion
    // (62 gates for n = 12, after the initial Hadamard layer): per gate,
    // the median falls between the cheap X gates (58 % of an iteration)
    // and the Hadamards, and moved 11 % between runs.
    let request_ms: Vec<f64> = steps
        .best
        .iter()
        .flat_map(|per_input| {
            let gates = &per_input[Scheme::Qomega as usize];
            let (skip, chunk) = match args.workload {
                Workload::Grover => {
                    let n = inputs[0].n_qubits();
                    let iterations = grover_iterations(n) as usize;
                    let n = n as usize;
                    (n, (gates.len() - n) / iterations)
                }
                _ => (0, 1),
            };
            gates[skip..]
                .chunks(chunk)
                .map(|c| c.iter().sum::<f64>() * 1e3)
                .collect::<Vec<f64>>()
        })
        .collect();
    e2e.push(
        "latency_p50_ms",
        "ms",
        median(&request_ms),
        request_ms.len(),
    );
    e2e.push(
        "latency_p99_ms",
        "ms",
        quantile(&request_ms, 0.99),
        request_ms.len(),
    );

    let wall_over_cpu = wall_over_cpu(&runs);
    let mut layers = Metrics::default();
    let mut counts = job_counts(&runs);
    if args.trace {
        layer_metrics(&runs, &steps, &mut layers);
        time_kernels(&operands, &mut tr, &mut layers);
        layers.push(
            "circuits.compile_s",
            "s",
            median(&compile_s),
            compile_s.len(),
        );
        // The run's own traffic never reaches the serve layer.
        if let Err(e) = crate::serve::probe(args, &mut tr, &mut tally, &mut layers, &mut counts) {
            return Outcome::failed(tally, e);
        }
    }

    let record = format!(
        "\"inputs\":{},\"gates_per_input\":{},\"max_numeric_error\":{:e},\"sim.wall_over_cpu\":{}",
        inputs.len(),
        inputs.first().map_or(0, Circuit::len),
        max_numeric_err,
        crate::report::num(wall_over_cpu)
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

/// Checks `run` against its input's Q[ω] answer, taking the run as that
/// answer when it is the first Q[ω] run; see [`check`].
fn check_against(reference: &mut Option<Reference>, run: &JobRun) -> Result<f64, String> {
    if reference.is_none() && run.scheme == Scheme::Qomega {
        *reference = Some(Reference {
            amplitudes: run.amplitudes.clone(),
            final_nodes: run.final_nodes,
        });
    }
    match reference {
        Some(r) => check(run, r),
        None => Err(format!(
            "{}: no Q[ω] answer to check against",
            run.scheme.label()
        )),
    }
}

/// The engine layers under another workload's circuits: simulates each
/// `(scheme, circuit)` job once on a cold simulator, counting a job whose
/// exact norm² is not one as failed, and pushes the `core.*`, `sim.*`,
/// `rings.*` and `bigint.*` metrics. Job ids start at `first_job`.
/// Returns the per-job counts.
pub fn replay(
    jobs: &[(Scheme, Circuit)],
    first_job: u64,
    tr: &mut Tracer,
    tally: &mut Tally,
    layers: &mut Metrics,
) -> Vec<String> {
    let mut runs = Vec::with_capacity(jobs.len());
    let mut steps = Steps::default();
    let mut operands = Operands::default();
    for (k, (s, circuit)) in jobs.iter().enumerate() {
        let mut job_steps = Vec::with_capacity(circuit.len());
        let wanted = match s {
            Scheme::Numeric => false,
            Scheme::Qomega => operands.qomega.len() < REPLAY_OPERANDS,
            Scheme::Gcd => operands.domega.len() < REPLAY_OPERANDS,
        };
        let ops = wanted.then_some(&mut operands);
        let job = first_job + k as u64;
        let outcome =
            simulate_scheme(*s, circuit, job, tr, &mut job_steps, ops).and_then(|mut run| {
                if run.norm_is_one == Some(false) {
                    return Err(format!("job {job} ({}): exact norm² is not 1", s.label()));
                }
                steps.absorb(k, *s, &job_steps, true);
                run.amplitudes = Vec::new();
                runs.push((k, run));
                Ok(())
            });
        tally.record(outcome);
    }
    layer_metrics(&runs, &steps, layers);
    time_kernels(&operands, tr, layers);
    job_counts(&runs)
}

/// Ring operands [`replay`] collects per exact scheme before it stops
/// reading final states.
const REPLAY_OPERANDS: usize = 64;

/// Median over the jobs of wall ÷ CPU seconds.
fn wall_over_cpu(runs: &[(usize, JobRun)]) -> f64 {
    let ratios: Vec<f64> = runs.iter().map(|(_, r)| r.wall_s / r.cpu_s).collect();
    median(&ratios)
}

/// The counts taken at each job's boundary, as JSON objects.
fn job_counts(runs: &[(usize, JobRun)]) -> Vec<String> {
    runs.iter()
        .map(|(k, r)| {
            let st = &r.stats;
            let compute = [st.add_vec, st.add_mat, st.mv, st.mm];
            format!(
                "{{\"input\":{k},\"scheme\":\"{}\",\"gates\":{},\"final_nodes\":{},\"compute_lookups\":{},\"compute_hits\":{},\"weight_ops\":{},\"weight_hits\":{},\"nodes_allocated\":{},\"distinct_weights\":{}}}",
                r.scheme.label(),
                r.gates,
                r.final_nodes,
                compute.iter().map(|c| c.lookups).sum::<u64>(),
                compute.iter().map(|c| c.hits).sum::<u64>(),
                st.wop.lookups + st.wnorm.lookups,
                st.wop.hits + st.wnorm.hits,
                st.vec_nodes + st.mat_nodes,
                st.distinct_weights
            )
        })
        .collect()
}

/// The `core.*` counts, `sim.step_us.*` latencies per scheme and
/// `sim.wall_over_cpu`. Jobs of one input and scheme replay the same
/// circuit on a cold manager, so their counts are identical: the first job
/// of each input is counted, and counts are reported per job, averaged
/// over the inputs. A scheme without jobs gets `NaN`s, which fail the run.
fn layer_metrics(runs: &[(usize, JobRun)], steps: &Steps, out: &mut Metrics) {
    for s in Scheme::ALL {
        let mut firsts: Vec<&JobRun> = Vec::new();
        let mut seen: Vec<usize> = Vec::new();
        for (k, r) in runs {
            if r.scheme == s && !seen.contains(k) {
                seen.push(*k);
                firsts.push(r);
            }
        }
        let mut st = EngineStatistics::default();
        for r in &firsts {
            st.absorb(&r.stats);
        }
        let k = firsts.len() as f64;
        let n = firsts.len();
        let lookups = st.add_vec.lookups + st.add_mat.lookups + st.mv.lookups + st.mm.lookups;
        let l = s.label();
        let or_nan = |v: f64| if n == 0 { f64::NAN } else { v };
        out.push(
            format!("core.compute_cache.hit_rate.{l}"),
            "ratio",
            or_nan(st.cache_hit_rate()),
            n,
        );
        out.push(
            format!("core.compute_cache.lookups.{l}"),
            "count",
            lookups as f64 / k,
            n,
        );
        out.push(
            format!("core.weight_cache.hit_rate.{l}"),
            "ratio",
            or_nan(st.weight_cache_hit_rate()),
            n,
        );
        out.push(
            format!("core.weight_ops.{l}"),
            "count",
            (st.wop.lookups + st.wnorm.lookups) as f64 / k,
            n,
        );
        out.push(
            format!("core.distinct_weights.{l}"),
            "count",
            st.distinct_weights as f64 / k,
            n,
        );
        out.push(
            format!("core.nodes_allocated.{l}"),
            "count",
            (st.vec_nodes + st.mat_nodes) as f64 / k,
            n,
        );
        out.push(
            format!("core.final_nodes.{l}"),
            "count",
            firsts.iter().map(|r| r.final_nodes).sum::<usize>() as f64 / k,
            n,
        );
        if s != Scheme::Numeric {
            let bits = firsts.iter().map(|r| r.peak_bits).max();
            out.push(
                format!("core.peak_weight_bits.{l}"),
                "bits",
                bits.map_or(f64::NAN, |b| b as f64),
                n,
            );
        }
        let us: Vec<f64> = steps.all[s as usize].iter().map(|x| x * 1e6).collect();
        out.push(format!("sim.step_us.p50.{l}"), "us", median(&us), us.len());
        out.push(
            format!("sim.step_us.p99.{l}"),
            "us",
            quantile(&us, 0.99),
            us.len(),
        );
    }
    out.push(
        "sim.wall_over_cpu",
        "ratio",
        wall_over_cpu(runs),
        runs.len(),
    );
}
