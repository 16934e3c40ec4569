//! Argument parsing for the `paro` command-line tool.
//!
//! Hand-rolled (no external argument-parser dependency): every
//! subcommand takes `--flag value` options, read through one flag reader
//! that rejects unknown and repeated flags. Parsing is pure and unit
//! tested; the binary in `src/bin/paro.rs` dispatches on the result.

use paro_core::methods::AttentionMethod;
use paro_model::patterns::PatternKind;
use paro_model::{ModelConfig, TokenGrid};
use paro_quant::Bitwidth;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum CliCommand {
    /// `paro quantize`: run one synthetic head under a method and print
    /// fidelity metrics.
    Quantize {
        /// Token grid.
        grid: TokenGrid,
        /// Planted pattern.
        pattern: PatternKind,
        /// Quantization method.
        method: AttentionMethod,
        /// RNG seed.
        seed: u64,
    },
    /// `paro simulate`: run a machine model on a CogVideoX config.
    Simulate {
        /// Model config (2b or 5b).
        model: ModelConfig,
        /// Machine name: paro, sanger, vitcod, a100, align.
        machine: String,
    },
    /// `paro plan`: offline reorder-plan selection trace for one head.
    Plan {
        /// Token grid.
        grid: TokenGrid,
        /// Planted pattern.
        pattern: PatternKind,
        /// Quantization block edge.
        block_edge: usize,
        /// RNG seed.
        seed: u64,
    },
    /// `paro serve-bench`: drive the concurrent serving engine with a
    /// synthetic CogVideoX-2B workload and print a JSON metrics snapshot.
    ServeBench(ServeBenchOpts),
    /// `paro trace`: run a serving workload under a trace session, write
    /// Chrome trace-event JSON, and print per-stage summaries.
    Trace(TraceOpts),
    /// `paro perf-bench`: time the single-head packed-integer pipeline
    /// under the dispatched micro-kernel (plus a forced-scalar reference
    /// pass), write a `BENCH_<label>.json` baseline, and optionally gate
    /// against a committed baseline.
    PerfBench(PerfBenchOpts),
    /// `paro plan build`: calibrate every head of a synthetic workload
    /// and freeze the plans into a `.paro` artifact.
    PlanBuild(PlanBuildOpts),
    /// `paro plan inspect`: print an artifact's metadata and per-head
    /// plan table.
    PlanInspect {
        /// Artifact path.
        file: String,
    },
    /// `paro plan verify`: structurally verify an artifact — header,
    /// checksum, section bounds and per-head value domains.
    PlanVerify {
        /// Artifact path.
        file: String,
    },
    /// `paro tune`: search per-head bit budgets under a latency SLO with
    /// a roofline model seeded from a measured `BENCH_*.json`, freezing
    /// the tuned plans into an artifact plus a JSON report.
    Tune(TuneOpts),
    /// `paro help`: print usage.
    Help,
}

/// Options for `paro plan build`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanBuildOpts {
    /// Scaled-down token grid of the synthetic workload.
    pub grid: TokenGrid,
    /// Transformer blocks to freeze.
    pub blocks: usize,
    /// Heads per block to freeze.
    pub heads: usize,
    /// Quantization block edge.
    pub block_edge: usize,
    /// Mixed-precision bit budget.
    pub budget: f32,
    /// RNG seed — must match the serving workload's seed for the frozen
    /// plans to be the ones serving would have calibrated.
    pub seed: u64,
    /// Artifact output path.
    pub out: String,
}

/// Options for `paro tune`.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneOpts {
    /// Scaled-down token grid of the synthetic workload.
    pub grid: TokenGrid,
    /// Transformer blocks to tune.
    pub blocks: usize,
    /// Heads per block to tune.
    pub heads: usize,
    /// Quantization block edge.
    pub block_edge: usize,
    /// RNG seed.
    pub seed: u64,
    /// Measured `BENCH_*.json` perf baseline seeding the roofline model.
    pub bench: String,
    /// Mean per-head latency SLO, microseconds.
    pub slo_us: f64,
    /// Tuned-artifact output path.
    pub out: String,
    /// Tune-report JSON output path.
    pub report: String,
}

/// Options for `paro serve-bench`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchOpts {
    /// Scaled-down token grid the synthetic 2B workload runs on.
    pub grid: TokenGrid,
    /// Worker threads.
    pub threads: usize,
    /// Submission-queue capacity.
    pub queue: usize,
    /// Number of requests in the stream.
    pub requests: usize,
    /// Transformer blocks the stream cycles through.
    pub blocks: usize,
    /// Heads per block the stream cycles through.
    pub heads: usize,
    /// Mixed-precision bit budget.
    pub budget: f32,
    /// Quantization block edge.
    pub block_edge: usize,
    /// Per-request deadline in milliseconds (0 disables deadlines).
    pub deadline_ms: u64,
    /// RNG seed.
    pub seed: u64,
    /// Plan artifact to serve frozen calibrations from (`--plan`).
    pub plan: Option<String>,
    /// Optional path the JSON report is also written to (`--out`);
    /// parent directories are created as needed.
    pub out: Option<String>,
}

/// Options for `paro trace`: a serving workload plus the output path for
/// the Chrome trace-event JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOpts {
    /// The workload to run (same knobs as `paro serve-bench`, smaller
    /// default request count).
    pub bench: ServeBenchOpts,
    /// Path the Chrome trace-event JSON is written to.
    pub out: String,
}

/// Options for `paro perf-bench`: the single-head workload, the run
/// label/output path, and the optional baseline gate.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfBenchOpts {
    /// Token grid of the single benchmarked head.
    pub grid: TokenGrid,
    /// Mixed-precision bit budget.
    pub budget: f32,
    /// Quantization block edge.
    pub block_edge: usize,
    /// RNG seed.
    pub seed: u64,
    /// Run label, embedded in the report and the default output name.
    pub label: String,
    /// Path the report JSON is written to (default `BENCH_<label>.json`).
    pub out: String,
    /// Timed pipeline iterations per pass (medians and totals per pass
    /// are taken over these).
    pub iters: usize,
    /// Baseline report to diff against; a regression fails the command.
    pub compare: Option<String>,
    /// Regression tolerance in percent for the baseline gate.
    pub tolerance: f64,
}

/// Usage text.
pub const USAGE: &str = "\
paro — PARO attention-quantization toolkit

USAGE:
  paro quantize [--grid FxHxW] [--pattern KIND] [--method NAME] [--budget B] [--bits N] [--seed S]
  paro simulate [--model 2b|5b] [--machine paro|sanger|vitcod|a100|align]
  paro plan     [--grid FxHxW] [--pattern KIND] [--block EDGE] [--seed S]
  paro plan build   [--grid FxHxW] [--blocks N] [--heads N] [--block EDGE]
                    [--budget B] [--seed S] [--out FILE]
  paro plan inspect --file FILE
  paro plan verify  --file FILE
  paro tune     [--grid FxHxW] [--blocks N] [--heads N] [--block EDGE]
                [--seed S] [--bench FILE] [--slo-us US] [--out FILE]
                [--report FILE]
  paro serve-bench [--threads N] [--queue N] [--requests N] [--deadline-ms MS]
                   [--grid FxHxW] [--blocks N] [--heads N] [--budget B]
                   [--block EDGE] [--seed S] [--plan FILE] [--out FILE]
  paro trace    [--out FILE] [--threads N] [--queue N] [--requests N]
                [--deadline-ms MS] [--grid FxHxW] [--blocks N] [--heads N]
                [--budget B] [--block EDGE] [--seed S]
  paro perf-bench [--label NAME] [--out FILE] [--iters N] [--grid FxHxW]
                  [--budget B] [--block EDGE] [--seed S]
                  [--compare FILE] [--tolerance PCT]
  paro help

serve-bench drives the concurrent serving engine with a synthetic
CogVideoX-2B workload (scaled to --grid) and prints a JSON metrics
snapshot (requests/sec, latency percentiles, plan-cache hit/miss/
in-flight-wait counters) to stdout; --out also writes it to a file and
--plan serves frozen calibrations from a plan artifact instead of
recalibrating (the artifact must match the workload configuration).

plan build freezes every (block, head) calibration of the synthetic
workload into a versioned, checksummed .paro plan artifact that
serve-bench --plan (or ServeConfig::plan_artifact) loads zero-copy;
plan inspect prints an artifact's metadata and per-head table, and
plan verify checks its header, checksum and value domains
(see docs/ARTIFACT.md for the byte-level format contract).

tune searches per-head bit budgets ({2,4,8}-bit trial calibrations per
head) under a mean per-head latency SLO (--slo-us), scoring candidates
with a roofline model seeded from a measured perf-bench baseline
(--bench, default BENCH_ci_baseline.json). It writes the tuned plans as
an artifact (--out) plus a JSON report (--report) with the predicted
latency of every head and a predicted-vs-measured validation pass, and
exits non-zero when the SLO is infeasible.

trace runs the same workload under a span-recording session, writes
Chrome trace-event JSON (loadable in Perfetto / about://tracing) to
--out (default trace.json), and prints per-stage and per-head summary
tables. Requires a binary built with tracing compiled in (the default
build; see docs/TELEMETRY.md).

perf-bench times the single-head packed-integer pipeline for --iters
iterations under the runtime-dispatched SIMD micro-kernel, repeats the
pass with the kernel forced to scalar in the same process, and writes
per-stage span medians and totals per pass plus packed-AttnV MACs/s and
packed-map GB/s to --out (default BENCH_<label>.json). With --compare
BASELINE.json it prints a diff table and fails on any regression of a
stage's total per pass above --tolerance percent (stages under the
noise floor are reported but never gated); see EXPERIMENTS.md \"Perf
baselines\".

PATTERNS: temporal, spatial-row, spatial-col, window, diffuse
METHODS:  fp16, sage, sage2, sanger, naive-int8, naive-int4,
          block-int8, block-int4, paro-int8, paro-int4, paro-mp";

/// Parses CLI arguments (excluding the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, flags or
/// malformed values.
pub fn parse_args(args: &[String]) -> Result<CliCommand, String> {
    let Some((cmd, mut rest)) = args.split_first() else {
        return Ok(CliCommand::Help);
    };
    // `plan` grew subcommands; the bare-token peek must happen before
    // flag parsing, which rejects non-`--` tokens. Bare `paro plan`
    // (the legacy single-head selection trace) is untouched.
    let mut cmd = cmd.as_str();
    if cmd == "plan" {
        if let Some(sub @ ("build" | "inspect" | "verify")) = rest.first().map(String::as_str) {
            cmd = sub;
            rest = &rest[1..];
        }
    }
    let mut f = Flags::parse(rest)?;
    let parsed = match cmd {
        "help" | "--help" | "-h" => return Ok(CliCommand::Help),
        "quantize" => {
            let grid = f.grid("6x6x6")?;
            let pattern = parse_pattern(f.opt("pattern").unwrap_or("temporal"), &grid)?;
            let budget = f.num("budget", 4.8)?;
            let bits = parse_bits(f.opt("bits").unwrap_or("4"))?;
            let method = parse_method(f.opt("method").unwrap_or("paro-mp"), budget, bits)?;
            CliCommand::Quantize {
                grid,
                pattern,
                method,
                seed: f.num("seed", 42)?,
            }
        }
        "simulate" => {
            let model = match f.opt("model").unwrap_or("5b") {
                "2b" => ModelConfig::cogvideox_2b(),
                "5b" => ModelConfig::cogvideox_5b(),
                other => return Err(format!("unknown model '{other}' (use 2b or 5b)")),
            };
            let machine = f.string("machine", "paro");
            if !["paro", "sanger", "vitcod", "a100", "align"].contains(&machine.as_str()) {
                return Err(format!("unknown machine '{machine}'"));
            }
            CliCommand::Simulate { model, machine }
        }
        "plan" => {
            let grid = f.grid("6x6x6")?;
            CliCommand::Plan {
                pattern: parse_pattern(f.opt("pattern").unwrap_or("temporal"), &grid)?,
                grid,
                block_edge: f.num("block", 6)?,
                seed: f.num("seed", 42)?,
            }
        }
        // Defaults mirror serve-bench so `plan build` freezes exactly the
        // plans a default serve-bench run would calibrate.
        "build" => CliCommand::PlanBuild(PlanBuildOpts {
            grid: f.grid("4x6x6")?,
            blocks: f.count("blocks", 3)?,
            heads: f.count("heads", 4)?,
            block_edge: f.num("block", 6)?,
            budget: f.num("budget", 4.8)?,
            seed: f.num("seed", 42)?,
            out: f.string("out", "plans.paro"),
        }),
        "inspect" | "verify" => {
            let file = f.opt("file");
            // An unknown flag is the likelier mistake than a missing one.
            f.finish()?;
            let file = file
                .ok_or_else(|| format!("plan {cmd} needs --file ARTIFACT"))?
                .to_string();
            if cmd == "inspect" {
                CliCommand::PlanInspect { file }
            } else {
                CliCommand::PlanVerify { file }
            }
        }
        "serve-bench" => CliCommand::ServeBench(bench_opts(&mut f, 150)?),
        "perf-bench" => {
            let label = f.string("label", "local");
            if label.is_empty() || label.contains(['/', '\\']) {
                return Err(format!("--label must be a bare name, got '{label}'"));
            }
            CliCommand::PerfBench(PerfBenchOpts {
                // A bigger head than serve-bench's default: medians over a
                // sub-millisecond AttnV would be timer noise.
                grid: f.grid("6x8x8")?,
                budget: f.num("budget", 4.8)?,
                block_edge: f.num("block", 6)?,
                seed: f.num("seed", 42)?,
                out: f.string("out", &format!("BENCH_{label}.json")),
                label,
                iters: f.count("iters", 5)?,
                compare: f.opt("compare").map(str::to_string),
                tolerance: f.positive("tolerance", 30.0)?,
            })
        }
        "trace" => {
            // A trace of every request is the point here, not steady-state
            // throughput: default to a short stream. `--out` names the
            // Chrome JSON, so the workload's own `out` stays empty.
            let mut bench = bench_opts(&mut f, 24)?;
            let out = bench.out.take().unwrap_or_else(|| "trace.json".to_string());
            CliCommand::Trace(TraceOpts { bench, out })
        }
        // Defaults mirror perf-bench's head so the default --bench
        // baseline (measured on the same 6x8x8 grid) seeds a roofline for
        // the very workload being tuned.
        "tune" => CliCommand::Tune(TuneOpts {
            grid: f.grid("6x8x8")?,
            blocks: f.count("blocks", 2)?,
            heads: f.count("heads", 2)?,
            block_edge: f.num("block", 6)?,
            seed: f.num("seed", 42)?,
            bench: f.string("bench", "BENCH_ci_baseline.json"),
            slo_us: f.positive("slo-us", 1500.0)?,
            out: f.string("out", "PLAN_tuned.paro"),
            report: f.string("report", "TUNE_report.json"),
        }),
        other => return Err(format!("unknown command '{other}'; see `paro help`")),
    };
    f.finish()?;
    Ok(parsed)
}

/// The workload knobs every serving command shares, plus `--out`.
fn bench_opts(f: &mut Flags, default_requests: usize) -> Result<ServeBenchOpts, String> {
    Ok(ServeBenchOpts {
        grid: f.grid("4x6x6")?,
        threads: f.count("threads", 4)?,
        queue: f.count("queue", 64)?,
        requests: f.count("requests", default_requests)?,
        blocks: f.count("blocks", 3)?,
        heads: f.count("heads", 4)?,
        budget: f.num("budget", 4.8)?,
        block_edge: f.num("block", 6)?,
        deadline_ms: f.num("deadline-ms", 0)?,
        seed: f.num("seed", 42)?,
        plan: f.opt("plan").map(str::to_string),
        out: f.opt("out").map(str::to_string),
    })
}

/// The `--name value` pairs of one invocation. Every getter marks the
/// flag it reads; [`Flags::finish`] then rejects the first flag that no
/// getter read, so each command accepts exactly the flags it uses.
struct Flags<'a> {
    /// `(name, value, read)` in command-line order.
    pairs: Vec<(&'a str, &'a str, bool)>,
}

impl<'a> Flags<'a> {
    fn parse(args: &'a [String]) -> Result<Self, String> {
        let mut pairs: Vec<(&str, &str, bool)> = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("expected --flag, got '{flag}'"));
            };
            let Some(value) = it.next() else {
                return Err(format!("flag --{name} needs a value"));
            };
            if pairs.iter().any(|&(n, ..)| n == name) {
                return Err(format!("flag --{name} given more than once"));
            }
            pairs.push((name, value, false));
        }
        Ok(Flags { pairs })
    }

    /// The raw value of `--name`, if given.
    fn opt(&mut self, name: &str) -> Option<&'a str> {
        let pair = self.pairs.iter_mut().find(|(n, ..)| *n == name)?;
        pair.2 = true;
        Some(pair.1)
    }

    fn string(&mut self, name: &str, default: &str) -> String {
        self.opt(name).unwrap_or(default).to_string()
    }

    fn num<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        self.opt(name).map_or(Ok(default), parse_num)
    }

    /// A count that must be at least 1.
    fn count<T>(&mut self, name: &str, default: T) -> Result<T, String>
    where
        T: std::str::FromStr + PartialOrd + From<u8>,
    {
        let v = self.num(name, default)?;
        if v < T::from(1) {
            return Err(format!("--{name} must be at least 1"));
        }
        Ok(v)
    }

    /// A finite, positive number.
    fn positive(&mut self, name: &str, default: f64) -> Result<f64, String> {
        let v = self.num(name, default)?;
        if !(v.is_finite() && v > 0.0) {
            return Err(format!("--{name} must be positive, got {v}"));
        }
        Ok(v)
    }

    fn grid(&mut self, default: &str) -> Result<TokenGrid, String> {
        parse_grid(self.opt("grid").unwrap_or(default))
    }

    /// Rejects the first flag no getter read.
    fn finish(&self) -> Result<(), String> {
        match self.pairs.iter().find(|&&(.., read)| !read) {
            Some((name, ..)) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }
}

fn parse_grid(s: &str) -> Result<TokenGrid, String> {
    let parts: Vec<&str> = s.split('x').collect();
    if parts.len() != 3 {
        return Err(format!("grid must be FxHxW, got '{s}'"));
    }
    let dims: Result<Vec<usize>, _> = parts.iter().map(|p| p.parse::<usize>()).collect();
    let dims = dims.map_err(|_| format!("grid must be FxHxW with integers, got '{s}'"))?;
    if dims.contains(&0) {
        return Err("grid dimensions must be positive".to_string());
    }
    // Calibration and the f32 reference pipelines allocate the dense
    // tokens × tokens f32 score map (the packed-int path scores one block
    // row at a time), so both sizes must be representable before anything
    // is allocated.
    let map_bytes = dims[0]
        .checked_mul(dims[1])
        .and_then(|n| n.checked_mul(dims[2]))
        .and_then(|tokens| tokens.checked_mul(tokens))
        .and_then(|n| n.checked_mul(4));
    if map_bytes.is_none() {
        return Err(format!(
            "grid '{s}' is too large: its token count or dense map bytes (tokens² × 4) overflow usize"
        ));
    }
    Ok(TokenGrid::new(dims[0], dims[1], dims[2]))
}

fn parse_pattern(s: &str, grid: &TokenGrid) -> Result<PatternKind, String> {
    match s {
        "temporal" => Ok(PatternKind::Temporal),
        "spatial-row" => Ok(PatternKind::SpatialRow),
        "spatial-col" => Ok(PatternKind::SpatialCol),
        "window" => Ok(PatternKind::default_window(grid)),
        "diffuse" => Ok(PatternKind::Diffuse),
        other => Err(format!("unknown pattern '{other}'")),
    }
}

fn parse_bits(s: &str) -> Result<Bitwidth, String> {
    s.parse::<Bitwidth>()
        .map_err(|e| format!("bits must be one of 0/2/4/8: {e}"))
}

fn parse_method(s: &str, budget: f32, bits: Bitwidth) -> Result<AttentionMethod, String> {
    Ok(match s {
        "fp16" => AttentionMethod::Fp16,
        "sage" => AttentionMethod::SageAttention,
        "sage2" => AttentionMethod::SageAttentionV2,
        "sanger" => AttentionMethod::SangerSparse { threshold: 1e-3 },
        "naive-int8" => AttentionMethod::NaiveInt { bits: Bitwidth::B8 },
        "naive-int4" => AttentionMethod::NaiveInt { bits: Bitwidth::B4 },
        "block-int8" => AttentionMethod::blockwise_int(Bitwidth::B8),
        "block-int4" => AttentionMethod::blockwise_int(Bitwidth::B4),
        "paro-int8" => AttentionMethod::paro_int(Bitwidth::B8),
        "paro-int4" => AttentionMethod::paro_int(Bitwidth::B4),
        "paro-mp" => AttentionMethod::paro_mixed(budget),
        "paro-int" => AttentionMethod::paro_int(bits),
        other => return Err(format!("unknown method '{other}'")),
    })
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse::<T>().map_err(|_| format!("invalid number '{s}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse_args(&[]).unwrap(), CliCommand::Help);
        assert_eq!(parse_args(&args(&["help"])).unwrap(), CliCommand::Help);
        assert_eq!(parse_args(&args(&["--help"])).unwrap(), CliCommand::Help);
    }

    #[test]
    fn quantize_defaults() {
        let cmd = parse_args(&args(&["quantize"])).unwrap();
        match cmd {
            CliCommand::Quantize {
                grid,
                pattern,
                method,
                seed,
            } => {
                assert_eq!(grid, TokenGrid::new(6, 6, 6));
                assert_eq!(pattern, PatternKind::Temporal);
                assert_eq!(method, AttentionMethod::paro_mixed(4.8));
                assert_eq!(seed, 42);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quantize_with_flags() {
        let cmd = parse_args(&args(&[
            "quantize",
            "--grid",
            "4x8x8",
            "--pattern",
            "spatial-col",
            "--method",
            "naive-int4",
            "--seed",
            "7",
        ]))
        .unwrap();
        match cmd {
            CliCommand::Quantize {
                grid,
                pattern,
                method,
                seed,
            } => {
                assert_eq!(grid, TokenGrid::new(4, 8, 8));
                assert_eq!(pattern, PatternKind::SpatialCol);
                assert_eq!(method, AttentionMethod::NaiveInt { bits: Bitwidth::B4 });
                assert_eq!(seed, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn simulate_parses_machine_and_model() {
        let cmd = parse_args(&args(&["simulate", "--model", "2b", "--machine", "vitcod"])).unwrap();
        match cmd {
            CliCommand::Simulate { model, machine } => {
                assert_eq!(model.name, "CogVideoX-2B");
                assert_eq!(machine, "vitcod");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn plan_parses() {
        let cmd = parse_args(&args(&["plan", "--pattern", "window", "--block", "3"])).unwrap();
        match cmd {
            CliCommand::Plan {
                block_edge,
                pattern,
                ..
            } => {
                assert_eq!(block_edge, 3);
                assert!(matches!(pattern, PatternKind::LocalWindow { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse_args(&args(&["bogus"])).unwrap_err().contains("bogus"));
        assert!(parse_args(&args(&["quantize", "--grid", "4x4"]))
            .unwrap_err()
            .contains("FxHxW"));
        assert!(parse_args(&args(&["quantize", "--grid", "0x4x4"]))
            .unwrap_err()
            .contains("positive"));
        assert!(parse_args(&args(&["quantize", "--method", "magic"]))
            .unwrap_err()
            .contains("magic"));
        assert!(parse_args(&args(&["simulate", "--machine", "tpu"]))
            .unwrap_err()
            .contains("tpu"));
        assert!(parse_args(&args(&["quantize", "--seed"]))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse_args(&args(&["quantize", "seed", "1"]))
            .unwrap_err()
            .contains("--flag"));
        assert!(parse_args(&args(&["quantize", "--bits", "3"]))
            .unwrap_err()
            .contains("0/2/4/8"));
        assert!(
            parse_args(&args(&["serve-bench", "--threads", "2", "--threads", "8"]))
                .unwrap_err()
                .contains("--threads")
        );
        assert!(parse_args(&args(&[
            "perf-bench",
            "--grid",
            "99999999999x99999999999x9999999999"
        ]))
        .unwrap_err()
        .contains("too large"));
    }

    #[test]
    fn serve_bench_defaults() {
        let cmd = parse_args(&args(&["serve-bench"])).unwrap();
        match cmd {
            CliCommand::ServeBench(opts) => {
                assert_eq!(opts.grid, TokenGrid::new(4, 6, 6));
                assert_eq!(opts.threads, 4);
                assert_eq!(opts.queue, 64);
                assert_eq!(opts.requests, 150);
                assert_eq!(opts.blocks, 3);
                assert_eq!(opts.heads, 4);
                assert_eq!(opts.budget, 4.8);
                assert_eq!(opts.block_edge, 6);
                assert_eq!(opts.deadline_ms, 0);
                assert_eq!(opts.seed, 42);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn serve_bench_with_flags() {
        let cmd = parse_args(&args(&[
            "serve-bench",
            "--threads",
            "8",
            "--queue",
            "16",
            "--requests",
            "32",
            "--deadline-ms",
            "250",
            "--grid",
            "3x4x4",
            "--blocks",
            "2",
            "--heads",
            "5",
        ]))
        .unwrap();
        match cmd {
            CliCommand::ServeBench(opts) => {
                assert_eq!(opts.threads, 8);
                assert_eq!(opts.queue, 16);
                assert_eq!(opts.requests, 32);
                assert_eq!(opts.deadline_ms, 250);
                assert_eq!(opts.grid, TokenGrid::new(3, 4, 4));
                assert_eq!(opts.blocks, 2);
                assert_eq!(opts.heads, 5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn serve_bench_rejects_degenerate_values() {
        assert!(parse_args(&args(&["serve-bench", "--threads", "0"]))
            .unwrap_err()
            .contains("threads"));
        assert!(parse_args(&args(&["serve-bench", "--queue", "0"]))
            .unwrap_err()
            .contains("queue"));
        assert!(parse_args(&args(&["serve-bench", "--requests", "0"]))
            .unwrap_err()
            .contains("requests"));
        assert!(parse_args(&args(&["serve-bench", "--heads", "0"]))
            .unwrap_err()
            .contains("heads"));
        assert!(parse_args(&args(&["serve-bench", "--threads", "many"]))
            .unwrap_err()
            .contains("many"));
    }

    #[test]
    fn usage_documents_serve_bench() {
        assert!(USAGE.contains("serve-bench"));
        assert!(USAGE.contains("--deadline-ms"));
    }

    #[test]
    fn trace_defaults() {
        let cmd = parse_args(&args(&["trace"])).unwrap();
        match cmd {
            CliCommand::Trace(opts) => {
                assert_eq!(opts.out, "trace.json");
                // Shares serve-bench knobs but defaults to a short stream.
                assert_eq!(opts.bench.requests, 24);
                assert_eq!(opts.bench.grid, TokenGrid::new(4, 6, 6));
                assert_eq!(opts.bench.threads, 4);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trace_with_flags() {
        let cmd = parse_args(&args(&[
            "trace",
            "--out",
            "/tmp/t.json",
            "--requests",
            "8",
            "--threads",
            "2",
        ]))
        .unwrap();
        match cmd {
            CliCommand::Trace(opts) => {
                assert_eq!(opts.out, "/tmp/t.json");
                assert_eq!(opts.bench.requests, 8);
                assert_eq!(opts.bench.threads, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trace_rejects_degenerate_values() {
        assert!(parse_args(&args(&["trace", "--requests", "0"]))
            .unwrap_err()
            .contains("requests"));
        assert!(parse_args(&args(&["trace", "--threads", "0"]))
            .unwrap_err()
            .contains("threads"));
    }

    #[test]
    fn usage_documents_trace() {
        assert!(USAGE.contains("paro trace"));
        assert!(USAGE.contains("--out"));
    }

    #[test]
    fn perf_bench_defaults() {
        let cmd = parse_args(&args(&["perf-bench"])).unwrap();
        match cmd {
            CliCommand::PerfBench(opts) => {
                assert_eq!(opts.grid, TokenGrid::new(6, 8, 8));
                assert_eq!(opts.budget, 4.8);
                assert_eq!(opts.block_edge, 6);
                assert_eq!(opts.seed, 42);
                assert_eq!(opts.label, "local");
                assert_eq!(opts.out, "BENCH_local.json");
                assert_eq!(opts.iters, 5);
                assert_eq!(opts.compare, None);
                assert_eq!(opts.tolerance, 30.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn perf_bench_with_flags() {
        let cmd = parse_args(&args(&[
            "perf-bench",
            "--label",
            "ci_baseline",
            "--iters",
            "9",
            "--grid",
            "4x6x6",
            "--compare",
            "BENCH_ci_baseline.json",
            "--tolerance",
            "25",
        ]))
        .unwrap();
        match cmd {
            CliCommand::PerfBench(opts) => {
                assert_eq!(opts.label, "ci_baseline");
                // --out defaults from the label.
                assert_eq!(opts.out, "BENCH_ci_baseline.json");
                assert_eq!(opts.iters, 9);
                assert_eq!(opts.grid, TokenGrid::new(4, 6, 6));
                assert_eq!(opts.compare.as_deref(), Some("BENCH_ci_baseline.json"));
                assert_eq!(opts.tolerance, 25.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        // An explicit --out wins over the label-derived default.
        let cmd = parse_args(&args(&["perf-bench", "--out", "/tmp/b.json"])).unwrap();
        match cmd {
            CliCommand::PerfBench(opts) => assert_eq!(opts.out, "/tmp/b.json"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn perf_bench_rejects_degenerate_values() {
        assert!(parse_args(&args(&["perf-bench", "--iters", "0"]))
            .unwrap_err()
            .contains("iters"));
        assert!(parse_args(&args(&["perf-bench", "--tolerance", "0"]))
            .unwrap_err()
            .contains("tolerance"));
        assert!(parse_args(&args(&["perf-bench", "--tolerance", "-5"]))
            .unwrap_err()
            .contains("tolerance"));
        assert!(parse_args(&args(&["perf-bench", "--label", "a/b"]))
            .unwrap_err()
            .contains("label"));
    }

    #[test]
    fn usage_documents_perf_bench() {
        assert!(USAGE.contains("perf-bench"));
        assert!(USAGE.contains("--tolerance"));
        assert!(USAGE.contains("BENCH_<label>.json"));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        for cmd in [
            "quantize",
            "simulate",
            "plan",
            "serve-bench",
            "trace",
            "perf-bench",
            "tune",
        ] {
            let err = parse_args(&args(&[cmd, "--wat", "7"])).unwrap_err();
            assert!(err.contains("unknown flag --wat"), "{cmd}: {err}");
        }
        for sub in ["build", "inspect", "verify"] {
            let err = parse_args(&args(&["plan", sub, "--wat", "7"])).unwrap_err();
            assert!(err.contains("unknown flag --wat"), "plan {sub}: {err}");
        }
        // Known flags still parse after the check.
        assert!(parse_args(&args(&["serve-bench", "--threads", "2"])).is_ok());
    }

    #[test]
    fn plan_build_defaults_mirror_serve_bench() {
        let cmd = parse_args(&args(&["plan", "build"])).unwrap();
        match cmd {
            CliCommand::PlanBuild(opts) => {
                assert_eq!(opts.grid, TokenGrid::new(4, 6, 6));
                assert_eq!(opts.blocks, 3);
                assert_eq!(opts.heads, 4);
                assert_eq!(opts.block_edge, 6);
                assert_eq!(opts.budget, 4.8);
                assert_eq!(opts.seed, 42);
                assert_eq!(opts.out, "plans.paro");
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse_args(&args(&[
            "plan",
            "build",
            "--grid",
            "2x4x4",
            "--blocks",
            "2",
            "--heads",
            "3",
            "--out",
            "out/p.paro",
        ]))
        .unwrap();
        match cmd {
            CliCommand::PlanBuild(opts) => {
                assert_eq!(opts.grid, TokenGrid::new(2, 4, 4));
                assert_eq!(opts.blocks, 2);
                assert_eq!(opts.heads, 3);
                assert_eq!(opts.out, "out/p.paro");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&args(&["plan", "build", "--blocks", "0"]))
            .unwrap_err()
            .contains("blocks"));
    }

    #[test]
    fn plan_inspect_and_verify_require_a_file() {
        let cmd = parse_args(&args(&["plan", "inspect", "--file", "p.paro"])).unwrap();
        assert_eq!(
            cmd,
            CliCommand::PlanInspect {
                file: "p.paro".to_string()
            }
        );
        let cmd = parse_args(&args(&["plan", "verify", "--file", "p.paro"])).unwrap();
        assert_eq!(
            cmd,
            CliCommand::PlanVerify {
                file: "p.paro".to_string()
            }
        );
        assert!(parse_args(&args(&["plan", "inspect"]))
            .unwrap_err()
            .contains("--file"));
        assert!(parse_args(&args(&["plan", "verify"]))
            .unwrap_err()
            .contains("--file"));
    }

    #[test]
    fn legacy_plan_still_parses_with_subcommands_present() {
        // The original flag-only `plan` must be untouched by the
        // subcommand peek.
        let cmd = parse_args(&args(&["plan", "--block", "3"])).unwrap();
        assert!(matches!(cmd, CliCommand::Plan { block_edge: 3, .. }));
        // And a bare unknown token still errors like before.
        assert!(parse_args(&args(&["plan", "bogus", "--x", "1"]))
            .unwrap_err()
            .contains("--flag"));
    }

    #[test]
    fn tune_defaults_and_flags() {
        let cmd = parse_args(&args(&["tune"])).unwrap();
        match cmd {
            CliCommand::Tune(opts) => {
                assert_eq!(opts.grid, TokenGrid::new(6, 8, 8));
                assert_eq!(opts.blocks, 2);
                assert_eq!(opts.heads, 2);
                assert_eq!(opts.block_edge, 6);
                assert_eq!(opts.seed, 42);
                assert_eq!(opts.bench, "BENCH_ci_baseline.json");
                assert_eq!(opts.slo_us, 1500.0);
                assert_eq!(opts.out, "PLAN_tuned.paro");
                assert_eq!(opts.report, "TUNE_report.json");
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse_args(&args(&[
            "tune", "--slo-us", "900", "--bench", "b.json", "--out", "t.paro", "--report",
            "r.json", "--heads", "3",
        ]))
        .unwrap();
        match cmd {
            CliCommand::Tune(opts) => {
                assert_eq!(opts.slo_us, 900.0);
                assert_eq!(opts.bench, "b.json");
                assert_eq!(opts.out, "t.paro");
                assert_eq!(opts.report, "r.json");
                assert_eq!(opts.heads, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tune_rejects_degenerate_values() {
        assert!(parse_args(&args(&["tune", "--slo-us", "0"]))
            .unwrap_err()
            .contains("slo-us"));
        assert!(parse_args(&args(&["tune", "--slo-us", "-5"]))
            .unwrap_err()
            .contains("slo-us"));
        assert!(parse_args(&args(&["tune", "--heads", "0"]))
            .unwrap_err()
            .contains("heads"));
    }

    #[test]
    fn serve_bench_plan_and_out_flags() {
        let cmd = parse_args(&args(&[
            "serve-bench",
            "--plan",
            "plans.paro",
            "--out",
            "reports/sb.json",
        ]))
        .unwrap();
        match cmd {
            CliCommand::ServeBench(opts) => {
                assert_eq!(opts.plan.as_deref(), Some("plans.paro"));
                assert_eq!(opts.out.as_deref(), Some("reports/sb.json"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // trace keeps --out for the Chrome JSON; its bench.out stays None.
        let cmd = parse_args(&args(&["trace", "--out", "t.json"])).unwrap();
        match cmd {
            CliCommand::Trace(opts) => {
                assert_eq!(opts.out, "t.json");
                assert_eq!(opts.bench.out, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn usage_documents_plan_artifacts_and_tune() {
        assert!(USAGE.contains("plan build"));
        assert!(USAGE.contains("plan inspect"));
        assert!(USAGE.contains("plan verify"));
        assert!(USAGE.contains("paro tune"));
        assert!(USAGE.contains("--slo-us"));
        assert!(USAGE.contains("--plan"));
        assert!(USAGE.contains("docs/ARTIFACT.md"));
    }

    #[test]
    fn all_documented_methods_parse() {
        for m in [
            "fp16",
            "sage",
            "sage2",
            "sanger",
            "naive-int8",
            "naive-int4",
            "block-int8",
            "block-int4",
            "paro-int8",
            "paro-int4",
            "paro-mp",
        ] {
            assert!(
                parse_args(&args(&["quantize", "--method", m])).is_ok(),
                "method {m} failed to parse"
            );
        }
    }
}
