//! Per-layer measurements shared by every workload: one attention head
//! through `int_pipeline`, split into the stages the pipeline calls
//! through public APIs of `paro-core` and `paro-quant`.

use crate::alloc::{measure_peak, set_counting};
use crate::report::{median, Outcome};
use crate::spans::Tracer;
use paro_core::calibration::HeadCalibration;
use paro_core::int_pipeline::{run_attention_calibrated_int, IntAttentionRun};
use paro_core::pipeline::{attention_map, AttentionInputs};
use paro_quant::{packed_attn_v, Bitwidth, MixedPrecisionMap, PerColCodes};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Largest share of the head's time the public stages may take beyond it
/// before the attribution check fails: the stages are timed in separate
/// calls, so their medians can add up to slightly more than the whole.
pub const ATTRIBUTION_TOLERANCE: f64 = 0.10;

/// One head's inputs and frozen plan, as a workload runs it.
pub struct HeadCase<'a> {
    pub inputs: &'a AttentionInputs,
    pub cal: &'a HeadCalibration,
    pub output_aware: bool,
}

impl HeadCase<'_> {
    pub fn try_run(&self) -> Result<IntAttentionRun, String> {
        run_attention_calibrated_int(self.inputs, self.cal, self.output_aware)
            .map_err(|e| e.to_string())
    }

    pub fn run(&self) -> IntAttentionRun {
        self.try_run().expect("a calibrated head runs")
    }
}

/// Share of 0-bit blocks in a plan.
pub fn b0_share(cal: &HeadCalibration) -> f64 {
    let bits = &cal.allocation.bits;
    bits.iter().filter(|&&b| b == Bitwidth::B0).count() as f64 / bits.len().max(1) as f64
}

/// Times `int_pipeline.head` (a direct `run_attention_calibrated_int`
/// call) and, interleaved with it, a replay of its public stages on the
/// same inputs, for at least `reps` rounds or until `budget` runs out.
/// The crate-private stages (INT8 `Q`/`K` quantization, `QKᵀ`, softmax)
/// are what `int_pipeline.unattributed_ms` leaves over.
pub fn int_pipeline_layers(
    tracer: &Tracer,
    case: &HeadCase,
    reps: usize,
    budget: Duration,
    out: &mut Outcome,
) {
    let inputs = case.inputs;
    let plan = case.cal.plan(inputs.grid());
    let direct = case.run();
    // The int path's own map is crate-private; the public f32 map of the
    // reordered Q/K has the same shape, so quantizing it costs the same.
    let map = {
        let qr = plan.apply(inputs.q()).expect("plan fits");
        let kr = plan.apply(inputs.k()).expect("plan fits");
        attention_map(&qr, &kr).expect("map")
    };
    let started = Instant::now();
    let mut staged_bytes = 0;
    let mut staged_macs = 0;
    let mut round = 0u64;
    while (round as usize) < reps.max(1) || started.elapsed() < budget {
        {
            let _head = tracer.span("int_pipeline.head", None, round);
            black_box(case.run());
        }
        let stages = tracer.span("int_pipeline.stages", None, round);
        let parent = stages.id();
        let (qr, kr, vr) = {
            let _s = tracer.span("reorder.apply", parent, round);
            (
                plan.apply(inputs.q()).expect("plan fits"),
                plan.apply(inputs.k()).expect("plan fits"),
                plan.apply(inputs.v()).expect("plan fits"),
            )
        };
        black_box((&qr, &kr));
        let vq = {
            let _s = tracer.span("quant.v_quantize", parent, round);
            PerColCodes::quantize(&vr, Bitwidth::B8).expect("V quantizes")
        };
        let packed = {
            let _s = tracer.span("quant.map_quantize", parent, round);
            MixedPrecisionMap::quantize(&map, case.cal.block, &case.cal.allocation.bits)
                .expect("map quantizes")
        };
        let attn = {
            let _s = tracer.span("quant.attn_v", parent, round);
            packed_attn_v(&packed, &vq).expect("AttnV runs")
        };
        {
            let _s = tracer.span("reorder.invert", parent, round);
            black_box(plan.invert(&attn.output).expect("plan fits"));
        }
        drop(stages);
        staged_bytes = attn.packed_map_bytes;
        staged_macs = attn.executed_macs;
        round += 1;
    }

    let head_ms = median(&tracer.durations_ms("int_pipeline.head"));
    let mut stage_sum = 0.0;
    for (span, metric) in [
        ("reorder.apply", "reorder.apply_ms"),
        ("reorder.invert", "reorder.invert_ms"),
        ("quant.v_quantize", "quant.v_quantize_ms"),
        ("quant.map_quantize", "quant.map_quantize_ms"),
        ("quant.attn_v", "quant.attn_v_ms"),
    ] {
        let v = median(&tracer.durations_ms(span));
        stage_sum += v;
        out.metrics.add(metric, "ms", v);
    }
    let unattributed = head_ms - stage_sum;
    out.metrics.add("int_pipeline.head_ms", "ms", head_ms);
    out.metrics
        .add("int_pipeline.unattributed_ms", "ms", unattributed);
    out.attribution(
        "int_pipeline.attribution",
        unattributed >= -ATTRIBUTION_TOLERANCE * head_ms,
        format!(
            "public stages {stage_sum:.3} ms + unattributed {unattributed:.3} ms = head \
             {head_ms:.3} ms; stages may exceed the head by at most {:.0}%",
            ATTRIBUTION_TOLERANCE * 100.0
        ),
    );
    let glue = median(&tracer.self_ms("int_pipeline.stages"));
    out.metrics.add("int_pipeline.stages_self_ms", "ms", glue);
    let stats = direct.stats;
    out.attribution(
        "int_pipeline.staged_replay_same_work",
        staged_bytes == stats.packed_map_bytes && staged_macs == stats.executed_macs,
        format!(
            "replayed AttnV read {staged_bytes} map bytes in {staged_macs} MACs; the direct \
             call {} bytes in {} MACs",
            stats.packed_map_bytes, stats.executed_macs
        ),
    );
    out.metrics.add(
        "int_pipeline.executed_macs",
        "count",
        stats.executed_macs as f64,
    );
    out.metrics.add(
        "int_pipeline.skipped_mac_share",
        "ratio",
        stats.skipped_fraction(),
    );
    out.metrics.add(
        "int_pipeline.packed_map_bytes",
        "bytes",
        stats.packed_map_bytes as f64,
    );
    out.metrics.add(
        "int_pipeline.v_bytes",
        "bytes",
        stats.v_payload_bytes as f64,
    );
    let (_, peak) = measure_peak(|| black_box(case.run()));
    out.metrics.add("int_pipeline.peak_heap_mb", "MiB", peak);
    out.metrics.add(
        "alloc.counting_overhead_pct",
        "%",
        counting_overhead_pct(case, budget.mul_f64(0.2)),
    );
}

/// What the allocator wrapper's counting costs one head: alternating
/// runs with counting on and off, as a share of the median without it.
/// With counting off the wrapper still forwards every call, at the cost of
/// one relaxed load.
fn counting_overhead_pct(case: &HeadCase, budget: Duration) -> f64 {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while on.len() < 5 || started.elapsed() < budget {
        for counting in [true, false] {
            set_counting(counting);
            let t0 = Instant::now();
            black_box(case.run());
            let dt = t0.elapsed().as_secs_f64();
            set_counting(false);
            if counting {
                on.push(dt)
            } else {
                off.push(dt)
            }
        }
    }
    (median(&on) - median(&off)) / median(&off) * 100.0
}

/// `calibration.maps_ms` and `calibration.head_ms`, per head, from the
/// set-up spans.
pub fn add_calibration_layers(tracer: &Tracer, out: &mut Outcome) {
    for (span, metric) in [
        ("calibration.maps", "calibration.maps_ms"),
        ("calibration.head", "calibration.head_ms"),
    ] {
        out.metrics
            .add(metric, "ms", median(&tracer.durations_ms(span)));
    }
}
