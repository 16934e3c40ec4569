//! The `paro` command-line tool: quantize synthetic heads, simulate
//! machines, trace reorder-plan selection, benchmark and profile the
//! serving engine. Run `paro help` for usage.

use paro::cli::{parse_args, CliCommand, PerfBenchOpts, ServeBenchOpts, TraceOpts, USAGE};
use paro::core::calibration::{calibrate_head, HeadCalibration};
use paro::core::cancel::Deadline;
use paro::core::int_pipeline::run_attention_calibrated_int_on;
use paro::core::pipeline::attention_map;
use paro::core::reorder::{reorder_map, select_plan, ReorderPlan};
use paro::plans::{
    build_plan_bytes, inspect_text, record_kernel_dispatch, run_traced_batch, run_tune,
    synthetic_source, verify_text, workload_engine, workload_model, workload_spec, write_output,
};
use paro::prelude::*;
use paro::report::{
    diff_stage_totals, emit, format_diff_table, missing_baseline_stages, stage_rows,
    AttnVThroughput, PerfBenchReport, PerfStageRow, RunInfo, ServeBenchReport,
};
use paro::serve::workload::{synthetic_requests, WorkloadSpec};
use paro::serve::{CalibrationSource, Engine};
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
    let engine = workload_engine(opts, &model, source)?;
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

/// Per-stage medians and totals, and `AttnV` throughput, of one timed
/// perf-bench pass.
#[derive(Clone)]
struct PerfPass {
    stages: Vec<PerfStageRow>,
    attn_v: AttnVThroughput,
}

/// Runs the single-head packed-integer pipeline `iters` times on
/// `kernel` under a trace session and derives per-stage medians and
/// totals per iteration plus `attnv.mac` throughput. `kernel` runs the
/// score, map-quantize and `AttnV` loops; the `Q`/`K` fake quantization
/// runs on the process's dispatched kernel either way.
fn perf_pass(
    inputs: &AttentionInputs,
    cal: &HeadCalibration,
    output_aware: bool,
    iters: usize,
    kernel: kernel::Kernel,
) -> Result<PerfPass, Box<dyn std::error::Error>> {
    let run = || run_attention_calibrated_int_on(inputs, cal, output_aware, Deadline::NONE, kernel);
    // Warm once so one-time costs (page faults, lazy init) stay out of
    // the medians, and keep the run's MAC/byte accounting.
    let stats = run()?.stats;
    let session = paro::trace::TraceSession::start();
    record_kernel_dispatch();
    let t0 = Instant::now();
    for _ in 0..iters {
        run()?;
    }
    let wall = t0.elapsed();
    let summary = session.finish().summary();
    // Pool scheduling is left out: how many pool workers a head's block
    // rows spread over, and how long a worker takes to wake, depend on
    // the host, not on the pipeline.
    let stages: Vec<PerfStageRow> = summary
        .iter()
        .filter(|s| !s.stage.starts_with("pool."))
        .map(|s| PerfStageRow {
            stage: s.stage.to_string(),
            count: s.count,
            p50_us: s.p50_ns as f64 / 1e3,
            total_us: s.total_ns as f64 / 1e3 / iters as f64,
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
                    `trace` feature); perf-bench needs stage spans — rebuild \
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
    // committed baseline gates on (`qkt.ldz` only exists on this path).
    let output_aware = true;
    let dispatched = perf_pass(&inputs, &cal, output_aware, opts.iters, dispatch.kernel)?;
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
            kernel::Kernel::Scalar,
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
        let rows = diff_stage_totals(&baseline.stages, &report.stages, opts.tolerance);
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
            "\nper-stage totals per pass vs {} (baseline kernel {}, current {}, \
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
                "per-stage total per pass regression above {}%: {}",
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
