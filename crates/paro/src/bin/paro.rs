//! The `paro` command-line tool: quantize synthetic heads, simulate
//! machines, trace reorder-plan selection, benchmark and profile the
//! serving engine. Run `paro help` for usage.

use paro::cli::{
    parse_args, ChaosBenchOpts, CliCommand, DriftBenchOpts, PerfBenchOpts, ServeBenchOpts,
    SoakBenchOpts, TraceOpts, USAGE,
};
use paro::core::calibration::{calibrate_head, HeadCalibration};
use paro::core::int_pipeline::run_attention_calibrated_int;
use paro::core::pipeline::attention_map;
use paro::core::reorder::{reorder_map, select_plan, ReorderPlan};
use paro::plans::{
    build_plan_bytes, inspect_text, output_bits, record_kernel_dispatch, run_traced_batch,
    run_tune, synthetic_source, verify_text, workload_engine, workload_model, workload_spec,
    write_output,
};
use paro::prelude::*;
use paro::report::{
    diff_stage_medians, emit, format_diff_table, missing_baseline_stages, stage_rows,
    AttnVThroughput, ChaosBenchReport, DriftBenchReport, InjectedFaultRow, PerfBenchReport,
    PerfStageRow, RunInfo, ServeBenchReport, SoakBenchReport, SoakRunReport, SoakTenantRow,
};
use paro::serve::workload::{
    open_loop_arrivals, synthetic_requests, synthetic_requests_at_phase, DriftSource, WorkloadSpec,
};
use paro::serve::{
    BatchOutcome, CalibrationSource, Engine, PlanHealth, TenantClass, Watchdog, WatchdogConfig,
};
use paro::tensor::kernel;
use paro::tensor::render;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&args) {
        Ok(cmd) => cmd,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(cmd) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(cmd: CliCommand) -> Result<(), Box<dyn std::error::Error>> {
    match cmd {
        CliCommand::Help => {
            println!("{USAGE}");
            Ok(())
        }
        CliCommand::Quantize {
            grid,
            pattern,
            method,
            seed,
        } => {
            let spec = PatternSpec::new(pattern);
            let head = synthesize_head(&grid, 32, &spec, seed);
            let reference = reference_attention(&head.q, &head.k, &head.v)?;
            let inputs = AttentionInputs::new(head.q, head.k, head.v, grid)?;
            let run = run_attention(&inputs, &method)?;
            println!(
                "method {} on a {} head over {} tokens (seed {seed})",
                method.name(),
                pattern,
                grid.len()
            );
            println!(
                "  rel-L2 error    {:.5}",
                metrics::relative_l2(&reference, &run.output)?
            );
            println!(
                "  cosine sim      {:.5}",
                metrics::cosine_similarity(&reference, &run.output)?
            );
            println!("  avg map bits    {:.2}", run.avg_bits);
            println!("  map sparsity    {:.1}%", run.map_sparsity * 100.0);
            if let Some(plan) = &run.plan {
                println!("  reorder plan    {}", plan.order());
            }
            if let Some(alloc) = &run.allocation {
                let h = alloc.histogram();
                println!(
                    "  block bits      0b:{} 2b:{} 4b:{} 8b:{}",
                    h[0], h[1], h[2], h[3]
                );
            }
            Ok(())
        }
        CliCommand::Simulate { model, machine } => {
            let profile = AttentionProfile::paper_mp();
            let m: Box<dyn Machine> = match machine.as_str() {
                "sanger" => Box::new(SangerMachine::default_budget()),
                "vitcod" => Box::new(VitcodMachine::default_budget()),
                "a100" => Box::new(GpuMachine::a100()),
                "align" => Box::new(ParoMachine::new(
                    HardwareConfig::paro_align_a100(),
                    ParoOptimizations::all(),
                )),
                _ => Box::new(ParoMachine::new(
                    HardwareConfig::paro_asic(),
                    ParoOptimizations::all(),
                )),
            };
            let report = m.run_model(&model, &profile);
            print!("{}", report.format_text());
            Ok(())
        }
        CliCommand::ServeBench(opts) => serve_bench(&opts),
        CliCommand::Trace(opts) => trace_workload(&opts),
        CliCommand::ChaosBench(opts) => chaos_bench(&opts),
        CliCommand::SoakBench(opts) => soak_bench(&opts),
        CliCommand::DriftBench(opts) => drift_bench(&opts),
        CliCommand::PerfBench(opts) => perf_bench(&opts),
        CliCommand::Plan {
            grid,
            pattern,
            block_edge,
            seed,
        } => {
            let spec = PatternSpec::new(pattern);
            let head = synthesize_head(&grid, 32, &spec, seed);
            let map = attention_map(&head.q, &head.k)?;
            let sel = select_plan(&map, &grid, BlockGrid::square(block_edge)?, Bitwidth::B4)?;
            println!(
                "plan selection for a {} head over {} tokens (block edge {block_edge}):",
                pattern,
                grid.len()
            );
            for (order, err) in &sel.candidate_errors {
                let marker = if *order == sel.order {
                    "  <== selected"
                } else {
                    ""
                };
                println!("  {order}: err {err:.5}{marker}");
            }
            let plan = ReorderPlan::new(&grid, sel.order);
            let reordered = reorder_map(&map, &plan)?;
            println!("\nbefore reorder:");
            println!("{}", render::ascii_heatmap(&map, 32)?);
            println!("after reorder ({}):", sel.order);
            println!("{}", render::ascii_heatmap(&reordered, 32)?);
            Ok(())
        }
        CliCommand::PlanBuild(opts) => {
            let bytes = build_plan_bytes(&opts)?;
            write_output(&opts.out, &bytes)?;
            let view = paro::artifact::ArtifactView::parse(&bytes)?;
            println!(
                "wrote {} heads ({} bytes) for {} -> {}",
                view.head_count(),
                bytes.len(),
                view.meta().model,
                opts.out,
            );
            Ok(())
        }
        CliCommand::PlanInspect { file } => {
            let bytes = std::fs::read(&file).map_err(|e| format!("cannot read {file}: {e}"))?;
            print!("{}", inspect_text(&bytes)?);
            Ok(())
        }
        CliCommand::PlanVerify { file } => {
            let bytes = std::fs::read(&file).map_err(|e| format!("cannot read {file}: {e}"))?;
            println!("{}", verify_text(&bytes)?);
            Ok(())
        }
        CliCommand::Tune(opts) => {
            let (report, bytes) = run_tune(&opts)?;
            write_output(&opts.out, &bytes)?;
            emit(&report, Some(&opts.report))?;
            eprintln!(
                "tuned {} heads: predicted mean {:.1} us vs SLO {:.1} us \
                 ({}; {} downgrade moves, mean budget {:.2} bits); \
                 artifact -> {}, report -> {}",
                report.heads.len(),
                report.predicted_mean_us,
                report.slo_us,
                if report.meets_slo {
                    "meets SLO"
                } else {
                    "SLO infeasible at the fastest budgets"
                },
                report.moves,
                report.mean_budget_bits,
                opts.out,
                opts.report,
            );
            if !report.meets_slo {
                return Err(format!(
                    "SLO of {} us is infeasible: predicted mean is {:.1} us \
                     with every head at its fastest trial budget",
                    report.slo_us, report.predicted_mean_us
                )
                .into());
            }
            Ok(())
        }
    }
}

/// The engine + request stream the serve, trace and chaos commands run.
struct Workload {
    model: ModelConfig,
    engine: Engine,
    spec: WorkloadSpec,
}

fn build_workload(opts: &ServeBenchOpts) -> Result<Workload, Box<dyn std::error::Error>> {
    let model = workload_model(&opts.grid);
    let source = Arc::new(synthetic_source(&model, opts.seed));
    let engine = workload_engine(opts, &model, source, vec![TenantClass::default()], None)?;
    let spec = workload_spec(opts, &model, opts.requests);
    Ok(Workload {
        model,
        engine,
        spec,
    })
}

fn serve_bench(opts: &ServeBenchOpts) -> Result<(), Box<dyn std::error::Error>> {
    let wl = build_workload(opts)?;
    // In a compiled-out build the session is inert and the stage table
    // stays empty.
    let (outcome, wall, trace) = run_traced_batch(&wl.engine, synthetic_requests(&wl.spec));
    let completed = outcome.completed();
    let report = ServeBenchReport {
        run: RunInfo::new(&wl.model, opts.seed),
        threads: opts.threads,
        queue_capacity: opts.queue,
        requests: opts.requests,
        distinct_heads: wl.spec.distinct_heads(),
        completed,
        failed: outcome.failed(),
        wall_ms: wall.as_secs_f64() * 1e3,
        requests_per_sec: if wall.as_secs_f64() > 0.0 {
            completed as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
        trace_stages: stage_rows(&trace.summary()),
        metrics: wl.engine.metrics_snapshot(),
    };
    emit(&report, opts.out.as_deref())?;
    Ok(())
}

/// Output bits of a batch whose requests all completed, or `None` if any
/// failed.
fn batch_output_bits(outcome: &BatchOutcome) -> Option<Vec<Vec<u32>>> {
    outcome
        .responses
        .iter()
        .map(|r| r.as_ref().ok().map(output_bits))
        .collect()
}

/// SplitMix64: derives per-site skip offsets from `--fault-seed` so the
/// injected schedule is deterministic and varied without a RNG dependency.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Arms one fault of every flavor — a pool-job panic, a calibration
/// panic, a transient int-pipeline error and a transient quant error —
/// with skip offsets derived from the fault seed. Returns the armed
/// specs for the report (`fired` is filled in after the chaos batch).
fn arm_faults(opts: &ChaosBenchOpts) -> Vec<(&'static str, paro::failpoint::FaultSpec)> {
    use paro::failpoint::{site, FaultKind, FaultSpec};
    let sites = [
        (site::POOL_JOB, FaultKind::Panic),
        (site::PLAN_CACHE_CALIBRATE, FaultKind::Panic),
        (site::PIPELINE_INT_ATTN, FaultKind::Error),
        (site::QUANT_PACK_ATTN_V, FaultKind::Error),
    ];
    let span = (opts.bench.requests as u64).max(1);
    sites
        .iter()
        .enumerate()
        .map(|(i, &(site, kind))| {
            let skip = splitmix64(opts.fault_seed ^ (i as u64)) % span;
            let spec = FaultSpec::new(kind, skip, opts.faults);
            paro::failpoint::arm(site, spec);
            (site, spec)
        })
        .collect()
}

fn chaos_bench(opts: &ChaosBenchOpts) -> Result<(), Box<dyn std::error::Error>> {
    let t0 = Instant::now();
    // Baseline: a never-faulted engine over the same workload.
    let baseline_bits = {
        let wl = build_workload(&opts.bench)?;
        let outcome = wl.engine.run_batch(synthetic_requests(&wl.spec));
        batch_output_bits(&outcome)
            .ok_or("baseline batch failed; chaos-bench needs a clean baseline")?
    };
    // Chaos: arm the fault schedule, run the same workload on a fresh
    // engine, and let the fault-tolerance machinery absorb it. Injected
    // panics are expected and contained — keep stderr readable.
    let wl = build_workload(&opts.bench)?;
    let armed = arm_faults(opts);
    std::panic::set_hook(Box::new(|_| {}));
    let chaos = wl.engine.run_batch(synthetic_requests(&wl.spec));
    let _ = std::panic::take_hook();
    let injected: Vec<InjectedFaultRow> = armed
        .into_iter()
        .map(|(site, spec)| InjectedFaultRow {
            site: site.to_string(),
            kind: spec.kind.as_str().to_string(),
            skip: spec.skip,
            times: spec.times,
            fired: paro::failpoint::fired(site),
        })
        .collect();
    // Disarm everything and re-run on the *same* engine: the clean batch
    // must reproduce the baseline bit for bit.
    paro::failpoint::reset();
    let clean = wl.engine.run_batch(synthetic_requests(&wl.spec));
    let clean_bits = batch_output_bits(&clean);
    let snap = wl.engine.metrics_snapshot();
    let report = ChaosBenchReport {
        run: RunInfo::new(&wl.model, opts.bench.seed),
        requests: opts.bench.requests,
        threads: opts.bench.threads,
        injected,
        chaos_completed: chaos.completed(),
        chaos_failed: chaos.failed(),
        clean_completed: clean.completed(),
        clean_bit_identical: clean_bits.as_ref() == Some(&baseline_bits),
        faulted: snap.faulted,
        retried: snap.retried,
        degraded: snap.degraded,
        timed_out: snap.timed_out,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    };
    emit(&report, opts.bench.out.as_deref())?;
    if !report.clean_bit_identical {
        return Err("clean batch after injected faults diverged from the baseline".into());
    }
    Ok(())
}

/// Per-request output bits of one soak run (`None` for rejected or
/// failed requests), in submission order.
type SoakOutputs = Vec<Option<Vec<u32>>>;

/// One soak run: submit the two-tenant stream on the open-loop arrival
/// clock, wait for every admitted request, and collect engine metrics,
/// scheduler accounting, shared-pool occupancy and per-index output bits
/// (`None` for rejected or failed requests).
fn soak_run(
    opts: &SoakBenchOpts,
    model: &ModelConfig,
) -> Result<(SoakRunReport, SoakOutputs), Box<dyn std::error::Error>> {
    let b = &opts.bench;
    let (w0, w1) = opts.weights;
    let engine = workload_engine(
        b,
        model,
        Arc::new(synthetic_source(model, b.seed)),
        vec![
            TenantClass::new("interactive", w0),
            TenantClass::new("batch", w1),
        ],
        None,
    )?;
    let requests: Vec<paro::serve::ServeRequest> =
        synthetic_requests(&workload_spec(b, model, b.requests))
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                r.tenant = i % 2;
                r
            })
            .collect();
    let arrivals = open_loop_arrivals(opts.rate, b.requests, b.seed);
    let pool = paro::core::pool::ComputePool::global();
    let before = pool.stats();
    let t0 = Instant::now();
    let mut tickets = Vec::with_capacity(b.requests);
    for (req, at) in requests.into_iter().zip(&arrivals) {
        // Open loop: hold to the arrival clock even when the engine lags;
        // a full queue becomes a rejection, not backpressure on arrivals.
        if let Some(wait) = at.checked_sub(t0.elapsed()) {
            std::thread::sleep(wait);
        }
        tickets.push(engine.try_submit(req));
    }
    let outputs: SoakOutputs = tickets
        .into_iter()
        .map(|ticket| {
            ticket
                .ok()
                .and_then(|t| engine.wait(t).ok().as_ref().map(output_bits))
        })
        .collect();
    let wall = t0.elapsed();
    let busy = pool.stats().busy_fraction_since(&before, wall);
    let snap = engine.metrics_snapshot();
    let stats = engine.graph_stats();
    let tenants: Vec<SoakTenantRow> = snap
        .tenants
        .iter()
        .zip([w0, w1])
        .map(|(t, weight)| SoakTenantRow {
            name: t.name.clone(),
            weight,
            submitted: t.submitted,
            completed: t.completed,
            shed_degraded: t.shed_degraded,
            shed_rejected: t.shed_rejected,
            failed: t.failed,
            mean_ms: t.total.mean_us / 1e3,
            p50_ms: t.total.p50_us as f64 / 1e3,
            p95_ms: t.total.p95_us as f64 / 1e3,
            p99_ms: t.total.p99_us as f64 / 1e3,
        })
        .collect();
    let run = SoakRunReport {
        wall_ms: wall.as_secs_f64() * 1e3,
        completed: snap.completed,
        failed: snap.failed,
        rejected: snap.rejected,
        timed_out: snap.timed_out,
        faulted: snap.faulted,
        shed_degraded: tenants.iter().map(|t| t.shed_degraded).sum(),
        shed_rejected: tenants.iter().map(|t| t.shed_rejected).sum(),
        waves: stats.waves,
        dispatched: stats.dispatched,
        pool_busy_fraction: busy,
        total_p50_ms: snap.total.p50_us as f64 / 1e3,
        total_p95_ms: snap.total.p95_us as f64 / 1e3,
        total_p99_ms: snap.total.p99_us as f64 / 1e3,
        tenants,
    };
    engine.shutdown();
    Ok((run, outputs))
}

/// Folds repeated runs into a single report: event counters are summed
/// across repeats, while wall time, busy fractions and latency quantiles
/// are averaged (quantiles of same-shape runs, so the mean is a fair
/// summary rather than a re-estimate).
fn aggregate_runs(runs: Vec<SoakRunReport>) -> SoakRunReport {
    let n = runs.len() as f64;
    let mut iter = runs.into_iter();
    let mut acc = iter.next().expect("at least one run");
    for run in iter {
        acc.wall_ms += run.wall_ms;
        acc.completed += run.completed;
        acc.failed += run.failed;
        acc.rejected += run.rejected;
        acc.timed_out += run.timed_out;
        acc.faulted += run.faulted;
        acc.shed_degraded += run.shed_degraded;
        acc.shed_rejected += run.shed_rejected;
        acc.waves += run.waves;
        acc.dispatched += run.dispatched;
        acc.pool_busy_fraction += run.pool_busy_fraction;
        acc.total_p50_ms += run.total_p50_ms;
        acc.total_p95_ms += run.total_p95_ms;
        acc.total_p99_ms += run.total_p99_ms;
        for (t, other) in acc.tenants.iter_mut().zip(run.tenants) {
            t.submitted += other.submitted;
            t.completed += other.completed;
            t.shed_degraded += other.shed_degraded;
            t.shed_rejected += other.shed_rejected;
            t.failed += other.failed;
            t.mean_ms += other.mean_ms;
            t.p50_ms += other.p50_ms;
            t.p95_ms += other.p95_ms;
            t.p99_ms += other.p99_ms;
        }
    }
    acc.wall_ms /= n;
    acc.pool_busy_fraction /= n;
    acc.total_p50_ms /= n;
    acc.total_p95_ms /= n;
    acc.total_p99_ms /= n;
    for t in &mut acc.tenants {
        t.mean_ms /= n;
        t.p50_ms /= n;
        t.p95_ms /= n;
        t.p99_ms /= n;
    }
    acc
}

fn soak_bench(opts: &SoakBenchOpts) -> Result<(), Box<dyn std::error::Error>> {
    let b = &opts.bench;
    let model = workload_model(&b.grid);
    // What the dispatch simulator expects one full wave of this workload
    // to keep busy under LPT — the yardstick the measured pool busy
    // fractions are read against.
    let cost =
        paro::serve::admission::request_cost(model.grid.len(), model.head_dim(), b.budget, None);
    let predicted =
        paro::sim::dispatch::predicted_wave_occupancy(&vec![cost; b.requests], b.threads);
    // Run the same arrival schedule `--repeat` times. Every run must
    // produce the same bits for every request index it completed — this
    // pins determinism across repeats whatever the scheduler interleaving.
    let mut runs = Vec::with_capacity(opts.repeat);
    let mut reference: SoakOutputs = vec![None; b.requests];
    let mut outputs_bit_identical = true;
    for _ in 0..opts.repeat {
        let (run, bits) = soak_run(opts, &model)?;
        for (slot, got) in reference.iter_mut().zip(bits) {
            if let Some(got) = got {
                match slot {
                    Some(want) => outputs_bit_identical &= *want == got,
                    None => *slot = Some(got),
                }
            }
        }
        runs.push(run);
    }
    let report = SoakBenchReport {
        run: RunInfo::new(&model, b.seed),
        threads: b.threads,
        queue_capacity: b.queue,
        requests: b.requests,
        rate_per_sec: opts.rate,
        repeat: opts.repeat,
        predicted_wave_occupancy: predicted,
        continuous: aggregate_runs(runs),
        outputs_bit_identical,
    };
    emit(&report, b.out.as_deref())?;
    eprintln!(
        "soak @ {:.0} req/s x{}: occupancy {:.2} (predicted {:.2}), \
         aggregate p99 {:.1} ms, outputs bit-identical: {}",
        report.rate_per_sec,
        report.requests,
        report.continuous.pool_busy_fraction,
        report.predicted_wave_occupancy,
        report.continuous.total_p99_ms,
        report.outputs_bit_identical,
    );
    if !report.outputs_bit_identical {
        return Err("soak runs diverged: repeats changed request outputs".into());
    }
    Ok(())
}

/// Fast-reacting watchdog for the drift bench: sample every request,
/// per-head baselines over three samples, and thresholds sitting between
/// the measured in-phase deviation (~0.01) and the cross-phase shift
/// (~0.08) of the synthetic pattern families (docs/LIFECYCLE.md).
fn drift_watchdog() -> WatchdogConfig {
    WatchdogConfig {
        sample_every: 1,
        baseline_samples: 3,
        ewma_alpha: 0.5,
        suspect_threshold: 0.04,
        stale_threshold: 0.08,
        hysteresis: 2,
    }
}

/// Builds an engine, watchdog-armed when given one, over a
/// rotating-phase calibration source. Recalibration stays manual (the
/// default `Off` policy) so the bench controls the swap point
/// deterministically.
fn drift_engine(
    b: &ServeBenchOpts,
    model: &ModelConfig,
    watchdog: Option<WatchdogConfig>,
) -> Result<(Engine, Arc<DriftSource>), Box<dyn std::error::Error>> {
    let source = Arc::new(DriftSource::new(model.clone(), 1, b.seed ^ 0xd21f7));
    let engine = workload_engine(
        b,
        model,
        source.clone(),
        vec![TenantClass::default()],
        watchdog,
    )?;
    Ok((engine, source))
}

/// One batch of the drift workload at the given pattern-rotation phase.
fn drift_requests(
    b: &ServeBenchOpts,
    model: &ModelConfig,
    requests: usize,
    phase: usize,
) -> Vec<paro::serve::ServeRequest> {
    synthetic_requests_at_phase(&workload_spec(b, model, requests), phase)
}

/// Proves hot-swap atomicity on a dedicated engine pair: requests parked
/// in the queue across a recalibration swap must produce outputs
/// bit-identical to a never-swapped engine, and admissions after the
/// swap must pin the new epoch.
fn swap_identity_check(
    b: &ServeBenchOpts,
    model: &ModelConfig,
) -> Result<bool, Box<dyn std::error::Error>> {
    let n = b.requests.clamp(2, 8);
    // The warm batch must cover every (block, head) pair the parked
    // batch will hit: a pair missing from the epoch-0 cache would be
    // recalibrated from the live — already rotated — source, which is a
    // legitimate output difference, not a swap-atomicity violation.
    let warm = b.blocks * b.heads;
    // Baseline: same warmup + batch on an engine that never swaps.
    let (baseline, _) = drift_engine(b, model, None)?;
    baseline.run_batch(drift_requests(b, model, warm, 0));
    let expected = batch_output_bits(&baseline.run_batch(drift_requests(b, model, n, 0)))
        .ok_or("swap-identity baseline batch failed")?;
    baseline.shutdown();
    let (engine, source) = drift_engine(b, model, None)?;
    // Warm the epoch-0 cache so the swap has a full generation to
    // replace.
    engine.run_batch(drift_requests(b, model, warm, 0));
    // Park the batch in the queue, then swap underneath it.
    engine.pause();
    let tickets = drift_requests(b, model, n, 0)
        .into_iter()
        .map(|r| engine.try_submit(r))
        .collect::<Result<Vec<_>, _>>()?;
    source.set_phase(1);
    let new_epoch = engine.recalibrate()?;
    engine.resume();
    let mut identical = true;
    for (ticket, want) in tickets.into_iter().zip(&expected) {
        let resp = engine.wait(ticket)?;
        identical &= resp.epoch + 1 == new_epoch && output_bits(&resp) == *want;
    }
    let post = engine.run_batch(drift_requests(b, model, 2, 0));
    for r in &post.responses {
        identical &= r.as_ref().map(|r| r.epoch == new_epoch).unwrap_or(false);
    }
    engine.shutdown();
    Ok(identical)
}

/// Times steady-state `Watchdog::observe` calls on an established
/// baseline: the per-request cost of arming the watchdog.
fn measure_watchdog_overhead_ns() -> f64 {
    let cfg = drift_watchdog();
    let baseline_samples = cfg.baseline_samples;
    let wd = Watchdog::new(cfg);
    for _ in 0..=baseline_samples {
        for key in 0..4usize {
            wd.observe((key, 0), 0.2);
        }
    }
    let iters = 100_000u32;
    let t0 = Instant::now();
    for i in 0..iters {
        std::hint::black_box(wd.observe(((i % 4) as usize, 0), 0.2));
    }
    t0.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn drift_bench(opts: &DriftBenchOpts) -> Result<(), Box<dyn std::error::Error>> {
    let b = &opts.bench;
    let model = workload_model(&b.grid);
    let swap_bit_identical = swap_identity_check(b, &model)?;
    // The lifecycle loop: warm at phase 0, rotate the request stream's
    // pattern families (drift), detect, recalibrate, recover.
    let (engine, source) = drift_engine(b, &model, Some(drift_watchdog()))?;
    let t0 = Instant::now();
    for _ in 0..opts.warmup {
        let out = engine.run_batch(drift_requests(b, &model, b.requests, 0));
        if out.completed() != b.requests {
            return Err("drift-bench warmup batch failed".into());
        }
    }
    let fresh_ewma = engine.watchdog_stats().map_or(0.0, |s| s.ewma_deviation);
    let mut detected_after_batches = None;
    for batch in 0..opts.detect_within {
        engine.run_batch(drift_requests(b, &model, b.requests, 1));
        if engine.plan_health() == Some(PlanHealth::Stale) {
            detected_after_batches = Some(batch + 1);
            break;
        }
    }
    let detected_within_bound = detected_after_batches.is_some();
    let drift_ewma = engine.watchdog_stats().map_or(0.0, |s| s.ewma_deviation);
    let epoch_before = engine.current_epoch();
    let mut recalibrated = false;
    let mut epoch_after = epoch_before;
    let mut recovered = false;
    let mut recovered_ewma = drift_ewma;
    if detected_within_bound {
        // Recalibrate against the now-drifted source and verify recovery
        // at the new epoch.
        source.set_phase(1);
        match engine.recalibrate() {
            Ok(epoch) => {
                recalibrated = true;
                epoch_after = epoch;
                recovered = true;
                for _ in 0..opts.post {
                    let out = engine.run_batch(drift_requests(b, &model, b.requests, 1));
                    recovered &= out.completed() == b.requests
                        && out.responses.iter().all(|r| {
                            r.as_ref()
                                .map(|r| !r.stale_plan && r.epoch == epoch)
                                .unwrap_or(false)
                        });
                }
                recovered &= engine.plan_health() == Some(PlanHealth::Fresh);
                recovered_ewma = engine
                    .watchdog_stats()
                    .map_or(f64::INFINITY, |s| s.ewma_deviation);
                // The fresh band uses the same margin the lifecycle
                // contract test pins.
                recovered &= recovered_ewma < fresh_ewma + 0.04;
            }
            Err(e) => eprintln!("drift-bench recalibration failed: {e}"),
        }
    }
    let wall = t0.elapsed();
    let snap = engine.metrics_snapshot();
    engine.shutdown();
    let passed = detected_within_bound && recalibrated && recovered && swap_bit_identical;
    let report = DriftBenchReport {
        run: RunInfo::new(&model, b.seed),
        threads: b.threads,
        requests_per_batch: b.requests,
        blocks: b.blocks,
        heads: b.heads,
        warmup_batches: opts.warmup,
        detect_bound_batches: opts.detect_within,
        post_batches: opts.post,
        wall_ms: wall.as_secs_f64() * 1e3,
        detected_after_batches,
        detected_within_bound,
        recalibrated,
        recovered,
        swap_bit_identical,
        passed,
        epoch_before,
        epoch_after,
        fresh_ewma,
        drift_ewma,
        recovered_ewma,
        stale_detected: snap.stale_detected,
        recalibrations: snap.recalibrations,
        recalib_failed: snap.recalib_failed,
        stale_served: snap.stale_served,
        watchdog_observe_ns: measure_watchdog_overhead_ns(),
    };
    emit(&report, b.out.as_deref())?;
    eprintln!(
        "drift: detected in {} batch(es) (bound {}), epoch {} -> {}, \
         ewma {:.4} -> {:.4} -> {:.4}, stale_served {}, \
         swap bit-identical: {}, watchdog observe {:.0} ns",
        detected_after_batches.map_or_else(|| "∞".to_string(), |n| n.to_string()),
        opts.detect_within,
        epoch_before,
        epoch_after,
        fresh_ewma,
        drift_ewma,
        recovered_ewma,
        snap.stale_served,
        swap_bit_identical,
        report.watchdog_observe_ns,
    );
    if !passed {
        return Err(format!(
            "drift lifecycle gate failed: detected_within_bound={detected_within_bound} \
             recalibrated={recalibrated} recovered={recovered} \
             swap_bit_identical={swap_bit_identical}"
        )
        .into());
    }
    Ok(())
}

/// Per-stage medians and `AttnV` throughput of one timed perf-bench pass.
#[derive(Clone)]
struct PerfPass {
    stages: Vec<PerfStageRow>,
    attn_v: AttnVThroughput,
}

/// Runs the single-head packed-integer pipeline `iters` times under a
/// trace session, optionally with the kernel dispatch forced, and derives
/// per-stage medians plus `attnv.mac` throughput. The forced dispatch is
/// always restored before returning.
fn perf_pass(
    inputs: &AttentionInputs,
    cal: &HeadCalibration,
    output_aware: bool,
    iters: usize,
    force: Option<kernel::Kernel>,
) -> Result<PerfPass, Box<dyn std::error::Error>> {
    kernel::force(force);
    let timed = (|| {
        // Warm once so one-time costs (page faults, lazy init) stay out
        // of the medians, and keep the run's MAC/byte accounting.
        let stats = run_attention_calibrated_int(inputs, cal, output_aware)?.stats;
        let session = paro::trace::TraceSession::start();
        record_kernel_dispatch();
        let t0 = Instant::now();
        for _ in 0..iters {
            run_attention_calibrated_int(inputs, cal, output_aware)?;
        }
        let wall = t0.elapsed();
        Ok::<_, Box<dyn std::error::Error>>((stats, session.finish(), wall))
    })();
    kernel::force(None);
    let (stats, trace, wall) = timed?;
    let summary = trace.summary();
    let stages: Vec<PerfStageRow> = summary
        .iter()
        .map(|s| PerfStageRow {
            stage: s.stage.to_string(),
            count: s.count,
            p50_us: s.p50_ns as f64 / 1e3,
        })
        .collect();
    Ok(PerfPass {
        stages,
        attn_v: AttnVThroughput::from_summary(&summary, &stats, wall, iters),
    })
}

fn perf_bench(opts: &PerfBenchOpts) -> Result<(), Box<dyn std::error::Error>> {
    if !paro::trace::COMPILED_IN {
        return Err("this binary was built without tracing (the paro crate's \
                    `trace` feature); perf-bench needs span medians — rebuild \
                    with default features"
            .into());
    }
    let model = workload_model(&opts.grid);
    let defaults = paro::serve::ServeConfig::default();
    let source = synthetic_source(&model, opts.seed);
    let spec = PatternSpec::for_head(&model.grid, 0, 0);
    let head = synthesize_head(&model.grid, model.head_dim(), &spec, opts.seed);
    let inputs = AttentionInputs::new(head.q, head.k, head.v, model.grid)?;
    let maps = source.calibration_maps(0, 0)?;
    let cal = calibrate_head(
        &maps,
        &model.grid,
        BlockGrid::square(opts.block_edge)?,
        defaults.calib_bits,
        opts.budget,
        defaults.alpha,
    )?;
    let dispatch = kernel::active();
    // Bench the output-aware (LDZ) `QKᵀ` regardless of the serving
    // default: it is the paper's headline datapath and the stage set the
    // committed baseline gates on (`qkt.ldz`, `qkt.mac`,
    // `pipeline.quantize_v` only exist on this path).
    let output_aware = true;
    let dispatched = perf_pass(&inputs, &cal, output_aware, opts.iters, None)?;
    // The scalar reference runs in the same process and binary; when the
    // dispatch already resolved to scalar it IS the reference.
    let scalar = if dispatch.kernel == kernel::Kernel::Scalar {
        dispatched.clone()
    } else {
        perf_pass(
            &inputs,
            &cal,
            output_aware,
            opts.iters,
            Some(kernel::Kernel::Scalar),
        )?
    };
    let speedup = if scalar.attn_v.macs_per_sec > 0.0 {
        dispatched.attn_v.macs_per_sec / scalar.attn_v.macs_per_sec
    } else {
        0.0
    };
    let report = PerfBenchReport {
        run: RunInfo::new(&model, opts.seed),
        label: opts.label.clone(),
        iters: opts.iters,
        stages: dispatched.stages,
        attn_v: dispatched.attn_v,
        scalar_attn_v: scalar.attn_v,
        attn_v_speedup_vs_scalar: speedup,
    };
    emit(&report, Some(&opts.out))?;
    eprintln!(
        "packed AttnV: {} {:.3e} MACs/s ({:.2} GB/s packed map) vs scalar \
         {:.3e} MACs/s — {:.2}x; report -> {}",
        report.run.kernel,
        report.attn_v.macs_per_sec,
        report.attn_v.packed_map_gb_per_sec,
        report.scalar_attn_v.macs_per_sec,
        report.attn_v_speedup_vs_scalar,
        opts.out,
    );
    if let Some(path) = &opts.compare {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
        let baseline: PerfBenchReport =
            serde_json::from_str(&text).map_err(|e| format!("baseline {path} malformed: {e}"))?;
        let rows = diff_stage_medians(&baseline.stages, &report.stages, opts.tolerance);
        // A baseline stage the candidate no longer measures means the
        // gate would silently stop watching it (renamed stage, dead code
        // path, tracing regression) — fail loudly with the name diff
        // instead of passing on the stages that remain.
        let missing = missing_baseline_stages(&baseline.stages, &report.stages);
        if !missing.is_empty() {
            eprint!("{}", format_diff_table(&rows));
            return Err(format!(
                "baseline stage(s) missing from candidate report: {}; \
                 candidate measured: {}. Refresh {} if the stage set \
                 changed intentionally.",
                missing.join(", "),
                report
                    .stages
                    .iter()
                    .map(|r| r.stage.as_str())
                    .collect::<Vec<_>>()
                    .join(", "),
                path,
            )
            .into());
        }
        eprintln!(
            "\nper-stage medians vs {} (baseline kernel {}, current {}, \
             tolerance {}%):",
            path, baseline.run.kernel, report.run.kernel, opts.tolerance
        );
        eprint!("{}", format_diff_table(&rows));
        let regressed: Vec<&str> = rows
            .iter()
            .filter(|r| r.regressed)
            .map(|r| r.stage.as_str())
            .collect();
        if !regressed.is_empty() {
            return Err(format!(
                "per-stage median regression above {}%: {}",
                opts.tolerance,
                regressed.join(", ")
            )
            .into());
        }
        eprintln!("no gated stage regressed");
    }
    Ok(())
}

fn trace_workload(opts: &TraceOpts) -> Result<(), Box<dyn std::error::Error>> {
    if !paro::trace::COMPILED_IN {
        return Err("this binary was built without tracing (the paro crate's \
                    `trace` feature); rebuild with default features to record"
            .into());
    }
    let wl = build_workload(&opts.bench)?;
    let (outcome, wall, trace) = run_traced_batch(&wl.engine, synthetic_requests(&wl.spec));
    write_output(&opts.out, trace.chrome_json().as_bytes())?;
    println!(
        "{} requests ({} ok, {} failed) on {} threads in {:.1} ms — {} spans -> {}",
        opts.bench.requests,
        outcome.completed(),
        outcome.failed(),
        opts.bench.threads,
        wall.as_secs_f64() * 1e3,
        trace.records.len(),
        opts.out,
    );
    if trace.dropped > 0 {
        println!("warning: {} spans dropped (buffer cap)", trace.dropped);
    }
    println!("\nper-stage summary (all requests):");
    print!("{}", paro::trace::format_table(&trace.summary()));

    // Per-head breakdown: the workload maps request r to (block, head)
    // pair r % distinct_heads, and every span carries the request index as
    // its correlation context.
    let pairs = wl.spec.distinct_heads();
    let heads = opts.bench.heads.min(wl.model.heads);
    for pair in 0..pairs {
        let records: Vec<paro::trace::SpanRecord> = trace
            .records
            .iter()
            .filter(|r| r.ctx != paro::trace::NO_CTX && (r.ctx as usize) % pairs == pair)
            .copied()
            .collect();
        if records.is_empty() {
            continue;
        }
        println!(
            "\nper-stage summary (block {}, head {}):",
            pair / heads,
            pair % heads
        );
        print!(
            "{}",
            paro::trace::format_table(&paro::trace::summarize(&records))
        );
    }
    Ok(())
}
