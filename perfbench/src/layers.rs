//! Direct probes of the layers under the profiler, for the traced run.
//!
//! The experiments call models, lowering, passes, timing and the cache
//! simulator internally, where the benchmark cannot put spans. So the
//! traced run calls those public functions itself, on the suite's stage
//! graphs under the attention and pass configurations `characterize`
//! uses, and times each layer in its own span.

use std::sync::Arc;

use mmg_attn::AttnImpl;
use mmg_gpu::{CacheHierarchy, DeviceSpec, ProbeRun, TimingEngine};
use mmg_graph::lower::lower_on;
use mmg_graph::{optimize, ElemWidth, Graph, Op, OptConfig};
use mmg_kernels::access::{AttentionKernel, VideoAttentionAccess};
use mmg_kernels::conv::ConvAlgorithm;
use mmg_kernels::KernelDesc;
use mmg_models::{suite, ModelId, Pipeline};
use mmg_profiler::{CostMemo, Profiler};
use mmg_telemetry::Registry;

use crate::trace::Tracer;

/// Suite builds timed per probe (the median is reported).
const BUILD_REPS: usize = 3;
/// Timing-engine sweeps over every lowered kernel.
const TIMING_REPS: usize = 5;
/// Sector probes per cache stream: Fig. 12's setting.
const CACHE_PROBES: usize = 200_000;
/// FP16 activations, as every characterize experiment profiles.
const ELEM_BYTES: usize = 2;

/// Runs every probe under `tr` and returns the per-layer figures.
pub fn probe(tr: &Tracer) -> Vec<(String, f64)> {
    let spec = DeviceSpec::a100_80gb();
    let mut out = Vec::new();
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));

    // models: build the whole suite.
    let mut build_s = Vec::new();
    let mut pipelines: Vec<Pipeline> = Vec::new();
    for _ in 0..BUILD_REPS {
        let t = std::time::Instant::now();
        pipelines = tr.span("models.build", || {
            ModelId::ALL.iter().map(|&id| suite::build(id)).collect()
        });
        build_s.push(t.elapsed().as_secs_f64());
    }
    put("models.build_s", crate::stats::median(&build_s));
    put("models.builds", pipelines.len() as f64);
    let graphs: Vec<&Graph> = pipelines
        .iter()
        .flat_map(|p| p.stages.iter().map(|s| &s.graph))
        .collect();
    let ops: Vec<&Op> = graphs
        .iter()
        .flat_map(|g| g.nodes().iter().map(|n| &n.op))
        .collect();

    // graph: lowering under both attention implementations.
    let sms = spec.sm_count as usize;
    let attns = [AttnImpl::Baseline, AttnImpl::Flash];
    let lowered: Vec<Vec<KernelDesc>> = tr.span("graph.lower", || {
        attns
            .iter()
            .flat_map(|&attn| {
                ops.iter()
                    .map(move |op| lower_on(op, attn, ELEM_BYTES, ConvAlgorithm::ImplicitGemm, sms))
            })
            .collect()
    });
    let lowerings = lowered.len() as u64;
    tr.units("graph.lower", lowerings);
    let kernels: u64 = lowered.iter().map(|k| k.len() as u64).sum();
    put("graph.kernels_per_op", kernels as f64 / lowerings as f64);

    // graph: the optimize experiment's pass configurations.
    let configs = [
        OptConfig {
            fuse: true,
            ..OptConfig::none()
        },
        OptConfig {
            width: ElemWidth::Int8,
            ..OptConfig::none()
        },
        OptConfig {
            graph_capture: true,
            ..OptConfig::none()
        },
        OptConfig::all(),
    ];
    let mut fused = 0u64;
    for cfg in &configs {
        let mut streams = lowered.clone();
        fused += tr.span("graph.optimize", || {
            streams
                .iter_mut()
                .map(|k| optimize::apply(k, cfg, &spec).kernels_fused)
                .sum::<u64>()
        });
    }
    tr.units("graph.optimize", lowerings * configs.len() as u64);
    put("graph.kernels_fused", fused as f64);

    // gpu: roofline timing of every lowered kernel.
    let engine = TimingEngine::with_registry(spec.clone(), &Registry::new());
    let checksum: f64 = tr.span("gpu.timing", || {
        (0..TIMING_REPS)
            .map(|_| {
                lowered
                    .iter()
                    .flatten()
                    .map(|k| engine.kernel_time(&k.cost).total_s)
                    .sum::<f64>()
            })
            .sum()
    });
    assert!(checksum > 0.0, "kernel times must be positive");
    tr.units("gpu.timing", kernels * TIMING_REPS as u64);

    // gpu: Fig. 12's six attention streams through the A100 hierarchy.
    let video = VideoAttentionAccess::make_a_video_base();
    let streams: Vec<Vec<ProbeRun>> = [
        AttentionKernel::Gemm,
        AttentionKernel::Softmax,
        AttentionKernel::Elementwise,
    ]
    .into_iter()
    .flat_map(|k| [false, true].map(|temporal| video.runs(k, temporal, CACHE_PROBES)))
    .collect();
    let accesses: u64 = streams.iter().map(|r| ProbeRun::total(r)).sum();
    let cache_registry = Registry::new();
    tr.span("gpu.cache", || {
        for runs in &streams {
            CacheHierarchy::for_device_with_registry(&spec, &cache_registry).run_runs(runs);
        }
    });
    tr.units("gpu.cache", accesses);
    put("gpu.cache_accesses", accesses as f64);

    // profiler: every stage graph with no memo (the miss path), then
    // against a warm memo (the replay path), for both attention kinds.
    let profile_all = |p: &Profiler| {
        for g in &graphs {
            let _ = p.profile(g);
        }
    };
    for &attn in &attns {
        let p = Profiler::with_registry(spec.clone(), attn, &Registry::new());
        tr.span("profiler.miss", || profile_all(&p));
        let memo = Arc::new(CostMemo::new());
        let p = Profiler::with_registry(spec.clone(), attn, &Registry::new()).with_memo(memo);
        profile_all(&p);
        tr.span("profiler.replay", || profile_all(&p));
    }
    tr.units("profiler.miss", ops.len() as u64 * attns.len() as u64);
    tr.units("profiler.replay", ops.len() as u64 * attns.len() as u64);
    out
}
