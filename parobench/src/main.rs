//! The repository benchmark: two seeded workloads through the public
//! APIs of `paro-serve`, `paro-core`, `paro-quant` and `paro-tensor`.
//!
//! ```text
//! cargo run --release --manifest-path parobench/Cargo.toml -- \
//!     --workload serve_poisson --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Standard output carries a header line (threads, kernel, seed, requests
//! per phase), one line per correctness check and metric, and as its last
//! line the result object `{"correct", "attempted", "failed", "metrics"}`.
//! The untraced run (`--trace 0`) reports the end-to-end metrics; the
//! traced run (`--trace 1`) times each layer's public calls from spans the
//! benchmark records itself, writes them to
//! `parobench/out/trace-<workload>-seed<seed>.json`, and reports the
//! per-layer metrics. The exit code is 1 when a correctness check fails
//! and 2 on a usage error.

mod alloc;
mod dit;
mod harness;
mod layers;
mod report;
mod serve;
mod spans;

use harness::{nproc, RunCfg};
use report::{Metrics, Outcome};
use spans::Tracer;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["serve_poisson", "dit_block"];

/// The untraced run's result metrics: `BENCHMARK.json`'s `end_to_end`.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "latency_p50_ms",
    "throughput_per_s",
    "peak_heap_mb",
    "output_rel_l2",
];

/// The traced run's result metrics: `BENCHMARK.json`'s `per_layer`. Each
/// is measured, and non-zero, on every workload; workload-specific layers
/// (`serve.*`, `sched.*`, `pool.*`, `exec.*`, `tensor.*`) and
/// `int_pipeline.skipped_mac_share`, which is 0 for some 384-token plans
/// at the 4.8-bit budget, are printed in the report lines only.
pub const PER_LAYER: [&str; 15] = [
    "int_pipeline.head_ms",
    "int_pipeline.unattributed_ms",
    "reorder.apply_ms",
    "reorder.invert_ms",
    "quant.v_quantize_ms",
    "quant.map_quantize_ms",
    "quant.attn_v_ms",
    "int_pipeline.executed_macs",
    "int_pipeline.packed_map_bytes",
    "int_pipeline.v_bytes",
    "int_pipeline.peak_heap_mb",
    "calibration.maps_ms",
    "calibration.head_ms",
    "latency_tail_ms",
    "trace_overhead_pct",
];

const USAGE: &str = "usage: parobench --workload <serve_poisson|dit_block> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Runs one workload and fills in the properties every result records.
pub fn run_workload(name: &str, cfg: &RunCfg) -> Outcome {
    let mut out = match name {
        "serve_poisson" => serve::run(cfg),
        "dit_block" => dit::run(cfg),
        _ => unreachable!("workload names are checked when parsed"),
    };
    let dispatch = paro_tensor::kernel::active();
    let mut properties: Vec<(String, String)> = [
        ("workload", name.to_string()),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", u8::from(cfg.traced()).to_string()),
        ("nproc", nproc().to_string()),
        (
            "pool_threads",
            paro_core::pool::ComputePool::global().threads().to_string(),
        ),
        ("kernel", dispatch.kernel.as_str().to_string()),
        ("kernel_forced", dispatch.forced.to_string()),
        (
            "program_trace_compiled_in",
            paro_trace::COMPILED_IN.to_string(),
        ),
    ]
    .map(|(k, v)| (k.to_string(), v))
    .into();
    properties.append(&mut out.properties.0);
    out.properties.0 = properties;
    out
}

/// The metrics of `names`, in that order; a missing one is a bug.
fn select(metrics: &Metrics, names: &[&str]) -> Result<Metrics, String> {
    let mut selected = Metrics::default();
    for name in names {
        let m = metrics
            .0
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("workload did not measure {name}"))?;
        selected.0.push(m.clone());
    }
    Ok(selected)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Pin the compute pool to the core count before its first use: the
    // pool otherwise honours a caller's PARO_POOL_THREADS.
    std::env::set_var("PARO_POOL_THREADS", nproc().to_string());
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        tiny: false,
    };
    let out = run_workload(&args.workload, &cfg);
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let selected = match select(&out.metrics, names) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    println!("{}", report::header_line(&out));
    for line in report::report_lines(&out) {
        println!("{line}");
    }
    if args.trace {
        let path = std::path::PathBuf::from(format!(
            "parobench/out/trace-{}-seed{}.json",
            args.workload, args.seed
        ));
        match cfg.tracer.write(&path) {
            Ok(()) => println!("trace {}", path.display()),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    println!("{}", report::result_line(&out, selected));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metrics that are pure functions of the seed: quality and work
    /// counts. Times, busy shares and wave counts depend on the host.
    const SEED_PURE: [&str; 12] = [
        "output_rel_l2",
        "failed_share",
        "int_pipeline.executed_macs",
        "int_pipeline.skipped_mac_share",
        "int_pipeline.packed_map_bytes",
        "int_pipeline.v_bytes",
        "pool.jobs",
        "sched.dispatched",
        "serve.cache_hit_share",
        "serve.rejected",
        "serve.timed_out",
        "serve.degraded",
    ];

    /// Attribution checks that compare medians of separate timings.
    const TIMED_ATTRIBUTION: [&str; 2] = ["int_pipeline.attribution", "exec.attribution"];

    fn run_tiny(workload: &str, seed: u64, traced: bool) -> Outcome {
        let cfg = RunCfg {
            seed,
            seconds: 1.0,
            tracer: Tracer::new(traced),
            tiny: true,
        };
        run_workload(workload, &cfg)
    }

    /// One test, so that no other test shares the global compute pool whose
    /// job counts it compares.
    #[test]
    fn tiny_workloads_repeat_exactly_from_one_seed_and_differ_across_seeds() {
        for workload in WORKLOADS {
            for traced in [false, true] {
                let a = run_tiny(workload, 7, traced);
                let b = run_tiny(workload, 7, traced);
                for out in [&a, &b] {
                    // Gates, and the attribution checks that compare work
                    // rather than times, must hold.
                    let failed: Vec<_> = out
                        .checks
                        .iter()
                        .filter(|c| !c.passed && (c.gate || !TIMED_ATTRIBUTION.contains(&&*c.name)))
                        .collect();
                    assert!(failed.is_empty(), "{workload}: {failed:?}");
                    let names: &[&str] = if traced { &PER_LAYER } else { &END_TO_END };
                    let selected =
                        select(&out.metrics, names).expect("every listed metric is measured");
                    for m in &selected.0 {
                        assert!(m.value.is_finite() && m.value != 0.0, "{workload}: {m:?}");
                    }
                }
                let mut compared = 0;
                for name in SEED_PURE {
                    let (Some(x), Some(y)) = (a.metrics.get(name), b.metrics.get(name)) else {
                        continue;
                    };
                    assert_eq!(x.to_bits(), y.to_bits(), "{workload} {name}: {x} vs {y}");
                    compared += 1;
                }
                assert!(
                    compared >= if traced { 6 } else { 2 },
                    "{workload}: {compared}"
                );
                let other = run_tiny(workload, 8, traced);
                assert_ne!(
                    a.metrics.get("output_rel_l2"),
                    other.metrics.get("output_rel_l2"),
                    "{workload}: another seed gives other inputs"
                );
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload dit_block --seed 3 --seconds 10 --trace 1",
        ))
        .expect("valid arguments");
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.trace),
            ("dit_block", 3, true)
        );
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload dit_block --seed x --seconds 10 --trace 0",
            "--workload dit_block --seed 3 --seconds 0 --trace 0",
            "--workload dit_block --seed 3 --seconds 10 --trace 2",
            "--workload dit_block --seed 3 --seconds 10",
            "--workload dit_block --seed 3 --seconds 10 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = serde_json::parse_value(&text).expect("valid JSON");
        let field = |v: &serde_json::Value, key: &str| {
            v.as_map()
                .expect("an object")
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("no {key}"))
        };
        let names = |key: &str| -> Vec<String> {
            field(&json, key)
                .as_seq()
                .expect("a list")
                .iter()
                .map(|m| field(m, "name").as_str().expect("a name").to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
    }
}
