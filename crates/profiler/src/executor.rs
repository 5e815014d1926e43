//! The performance-plane executor.
//!
//! Profiling a graph is two steps: resolve, then record.
//!
//! - **Resolve.** Every op of the graph becomes an [`OpCostEntry`]: its
//!   cost plus the exact counter deltas a kernel-by-kernel execution
//!   charges. An op the memo has seen is a lookup; any other op is
//!   lowered, optimized, timed and cache-simulated without touching the
//!   registry. The entries, with their deltas and kernel-time buckets
//!   summed, form the graph's [`StageEntry`]. A graph profiled before
//!   under the same configuration resolves in one step, from the memo's
//!   stage tier.
//! - **Record.** [`Profiler::record_stage`] applies the stage to the
//!   registry once — summed counter deltas, tallied histogram buckets,
//!   the power gauge — then emits each op's event and span with the live
//!   graph's paths.
//!
//! A stage hit, a stage miss and a memo-less profile differ only in how
//! they resolve, so their timelines and registries are identical by
//! construction.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use mmg_attn::AttnImpl;
use mmg_gpu::{DeviceSpec, HierarchyStats, TimingEngine};
use mmg_graph::optimize::{self, OptConfig};
use mmg_graph::{lower::lower_on, AttnKind, Graph, Node, Op};
use mmg_kernels::access::{AttentionKernel, VideoAttentionAccess};
use mmg_kernels::conv::ConvAlgorithm;
use mmg_telemetry::{Counter, Registry, SpanRecord};

use crate::memo::{synthetic_op_deltas, CostMemo, MemoKey, OpCostEntry, StageEntry, StageKey};
use crate::{AttnCallInfo, KernelRecord, ModuleHook, OpEvent, Timeline};

/// A shared counter-delta list (an op's or a whole stage's).
type Deltas = Arc<Vec<(String, u64)>>;

/// Counter handles the record path has resolved per memoized delta list,
/// keyed by the list's `Arc` address (the held `Arc` keeps the address
/// alive).
type Handles = HashMap<usize, (Deltas, Vec<Counter>)>;

/// Walks graphs and produces timelines.
///
/// # Example
///
/// ```
/// use mmg_attn::AttnImpl;
/// use mmg_gpu::DeviceSpec;
/// use mmg_graph::{Graph, Op};
/// use mmg_profiler::Profiler;
///
/// let mut g = Graph::new();
/// g.push("ffn", Op::Linear { tokens: 256, in_features: 1024, out_features: 4096 });
/// let profiler = Profiler::new(DeviceSpec::a100_80gb(), AttnImpl::Flash);
/// let timeline = profiler.profile(&g);
/// assert!(timeline.total_time_s() > 0.0);
/// ```
#[derive(Debug)]
pub struct Profiler {
    /// Evaluates launches without recording; built on the registry so
    /// the engine's metric families and help text exist there, as the
    /// record path charges them.
    engine: TimingEngine,
    attn: AttnImpl,
    elem_bytes: usize,
    conv_algo: ConvAlgorithm,
    /// Optimization passes applied to every op's lowered kernel stream.
    opt: OptConfig,
    registry: Registry,
    /// Max sector probes per attention op fed to the cache simulator;
    /// 0 disables per-op cache simulation.
    cache_probes: usize,
    /// Shared operator-cost memo; `None` profiles every op from scratch.
    memo: Option<Arc<CostMemo>>,
    /// Hash of the device spec, precomputed for memo keys.
    device_fingerprint: u64,
    /// Handle to the engine's `gpu_kernel_time_us` histogram, so the
    /// record path can observe stored kernel times without the engine.
    kernel_time_us: mmg_telemetry::Histogram,
    /// Handle to the engine's `gpu_power_w` gauge; recording restores
    /// the last-launch draw a kernel-by-kernel execution would leave.
    power_w: mmg_telemetry::Gauge,
    /// Resolved counter handles, so recording a memoized stage bumps its
    /// counters lock-free instead of re-parsing metric names under the
    /// registry lock. Bounded by the distinct stages this profiler
    /// records from its memo.
    handles: Mutex<Handles>,
}

impl Profiler {
    /// Creates a profiler for a device using the given attention
    /// implementation and FP16 activations, recording telemetry to the
    /// global registry.
    #[must_use]
    pub fn new(spec: DeviceSpec, attn: AttnImpl) -> Self {
        Profiler::with_registry(spec, attn, &mmg_telemetry::global())
    }

    /// Like [`Profiler::new`], recording telemetry to a specific
    /// registry.
    #[must_use]
    pub fn with_registry(spec: DeviceSpec, attn: AttnImpl, registry: &Registry) -> Self {
        let device_fingerprint = spec.fingerprint();
        Profiler {
            engine: TimingEngine::with_registry(spec, registry),
            attn,
            elem_bytes: 2,
            conv_algo: ConvAlgorithm::ImplicitGemm,
            opt: OptConfig::default(),
            registry: registry.clone(),
            cache_probes: 0,
            memo: None,
            device_fingerprint,
            kernel_time_us: registry
                .histogram("gpu_kernel_time_us", &mmg_telemetry::time_buckets_us()),
            power_w: registry.gauge("gpu_power_w"),
            handles: Mutex::default(),
        }
    }

    /// Overrides the element width (e.g. 4 for FP32 studies).
    #[must_use]
    pub fn with_elem_bytes(mut self, bytes: usize) -> Self {
        self.elem_bytes = bytes;
        self
    }

    /// Selects the convolution kernel algorithm (default implicit GEMM).
    #[must_use]
    pub fn with_conv_algorithm(mut self, algo: ConvAlgorithm) -> Self {
        self.conv_algo = algo;
        self
    }

    /// Enables optimization passes ([`mmg_graph::optimize`]) over every
    /// op's lowered kernel stream: epilogue fusion, element-width
    /// rewrites, and CUDA-graph launch elision. The config participates
    /// in the memo key, so optimized and eager profilers sharing a memo
    /// never replay each other's entries.
    #[must_use]
    pub fn with_opt_config(mut self, opt: OptConfig) -> Self {
        self.opt = opt;
        self
    }

    /// Enables per-op cache simulation for attention operators: each
    /// attention op replays up to `max_probes` sampled sector probes of
    /// its GEMM and softmax streams through a fresh L1/L2 hierarchy, so
    /// `gpu_l1_*`/`gpu_l2_*` counters (and per-op counter deltas)
    /// reflect the op's locality. Off by default — it adds simulation
    /// time proportional to `max_probes` per attention op.
    #[must_use]
    pub fn with_cache_sim(mut self, max_probes: usize) -> Self {
        self.cache_probes = max_probes;
        self
    }

    /// Attaches a shared operator-cost memo. Ops whose canonical
    /// [`MemoKey`] has been profiled before — by this profiler or any
    /// other sharing the memo — replay their stored cost and telemetry
    /// instead of re-running lowering, roofline timing, and cache
    /// simulation, and a whole graph profiled before under the same
    /// configuration replays from the memo's stage tier. Replay leaves
    /// the registry (counters, histogram, and span attribution) identical
    /// to a cold computation, so memoized and unmemoized runs produce
    /// byte-identical artifacts.
    #[must_use]
    pub fn with_memo(mut self, memo: Arc<CostMemo>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// The device spec this profiler simulates.
    #[must_use]
    pub fn spec(&self) -> &DeviceSpec {
        self.engine.spec()
    }

    /// A copy of this profiler with the CUDA-graph capture pass
    /// disabled, sharing the same registry, memo, and device. Capture
    /// only holds for static-shape kernel sequences (a denoising step
    /// replays identical kernels every iteration); autoregressive
    /// decode and MaskGIT resampling change shape every step, so
    /// pipeline-level callers profile those stages through this copy.
    /// The weakened [`OptConfig`] participates in memo keys, so the two
    /// profilers never replay each other's entries.
    #[must_use]
    pub fn without_graph_capture(&self) -> Profiler {
        Profiler {
            engine: self.engine.clone(),
            attn: self.attn,
            elem_bytes: self.elem_bytes,
            conv_algo: self.conv_algo,
            opt: OptConfig { graph_capture: false, ..self.opt },
            registry: self.registry.clone(),
            cache_probes: self.cache_probes,
            memo: self.memo.clone(),
            device_fingerprint: self.device_fingerprint,
            kernel_time_us: self.kernel_time_us.clone(),
            power_w: self.power_w.clone(),
            handles: Mutex::default(),
        }
    }

    /// Profiles a graph into a timeline.
    #[must_use]
    pub fn profile(&self, graph: &Graph) -> Timeline {
        self.profile_with_hooks(graph, &mut [])
    }

    /// Profiles a graph, delivering each event to the hooks as it is
    /// produced — the analogue of the paper's forward-function hooks.
    /// Hooks see each event after the whole graph's counters are applied.
    #[must_use]
    pub fn profile_with_hooks(
        &self,
        graph: &Graph,
        hooks: &mut [&mut dyn ModuleHook],
    ) -> Timeline {
        let memo = self.memo.as_deref();
        let key = self.stage_key(graph);
        if let Some(stage) = memo.and_then(|memo| memo.lookup_stage(&key)) {
            return self.record_stage(graph, &stage, None, hooks);
        }
        let mut starts = Vec::with_capacity(graph.len());
        let entries = graph
            .nodes()
            .iter()
            .map(|node| {
                starts.push(self.registry.epoch_us());
                self.resolve(&node.op, memo)
            })
            .collect();
        let stage = StageEntry::new(entries, &self.kernel_time_us);
        let stage = match memo {
            Some(memo) => memo.store_stage(key, stage),
            None => Arc::new(stage),
        };
        self.record_stage(graph, &stage, Some(starts), hooks)
    }

    /// One op's entry: from `memo` when it holds the op, else computed
    /// (and stored, when there is a memo).
    fn resolve(&self, op: &Op, memo: Option<&CostMemo>) -> Arc<OpCostEntry> {
        let Some(memo) = memo else {
            return Arc::new(self.compute_op(op));
        };
        let key = MemoKey::for_op(
            op,
            self.attn,
            self.elem_bytes,
            self.conv_algo,
            self.cache_probes,
            self.opt,
            self.device_fingerprint,
        );
        match memo.lookup(&key) {
            Some(entry) => entry,
            None => memo.store(key, self.compute_op(op)),
        }
    }

    fn stage_key(&self, graph: &Graph) -> StageKey {
        StageKey {
            ops: graph.fingerprint(),
            len: graph.len(),
            attn: self.attn,
            elem_bytes: self.elem_bytes,
            conv_algo: self.conv_algo,
            cache_probes: self.cache_probes,
            opt: self.opt,
            device_fingerprint: self.device_fingerprint,
        }
    }

    /// The miss path: lowers, optimizes, times and (for attention ops,
    /// when enabled) cache-simulates one op without touching the
    /// registry, returning its cost and the exact counter deltas a
    /// kernel-by-kernel execution would record.
    fn compute_op(&self, op: &Op) -> OpCostEntry {
        let spec = self.engine.spec();
        let mut kernels =
            lower_on(op, self.attn, self.elem_bytes, self.conv_algo, spec.sm_count as usize);
        let opt_stats = optimize::apply(&mut kernels, &self.opt, spec);
        let mut records = Vec::with_capacity(kernels.len());
        let (mut time_s, mut energy_j, mut flops, mut hbm) = (0.0, 0.0, 0u64, 0u64);
        for k in &kernels {
            let kt = self.engine.evaluate(&k.cost, k.captured);
            time_s += kt.total_s;
            energy_j += kt.energy_j;
            flops += k.cost.flops;
            hbm += k.cost.hbm_bytes;
            records.push(KernelRecord {
                kind: k.kind.to_string(),
                label: k.label.clone(),
                time_s: kt.total_s,
                compute_s: kt.compute_s,
                memory_s: kt.memory_s,
                flops: k.cost.flops,
                hbm_bytes: k.cost.hbm_bytes,
                wave_quant_idle_slots: k.wave_quant_idle_slots,
                draw_w: kt.draw_w,
                energy_j: kt.energy_j,
            });
        }
        let cache_stats = match op.attention_shape() {
            Some((shape, kind)) if self.cache_probes > 0 => {
                Some(self.simulate_attention_caches(&shape, kind))
            }
            _ => None,
        };
        let deltas = synthetic_op_deltas(&records, cache_stats, opt_stats);
        OpCostEntry::new(time_s, energy_j, flops, hbm, Arc::new(records), deltas)
    }

    /// The one record path. Applies a resolved graph to the registry as
    /// a kernel-by-kernel execution of every op would leave it: each
    /// distinct counter is bumped once by its summed delta, the histogram
    /// takes the pre-tallied buckets with kernel times summed in launch
    /// order (so its f64 sum is bitwise the per-kernel one), and the power
    /// gauge is set once. Then each op's event goes to the hooks and each
    /// op's span is recorded, with paths from the live graph.
    ///
    /// Op `i`'s span starts at `starts[i]` — the instant its resolution
    /// began — or, for a stage resolved in one step (`None`), at the
    /// instant its recording began. Each span ends where the next one
    /// starts and the last one at the end of recording, so the spans tile
    /// the profile call without gaps.
    fn record_stage(
        &self,
        graph: &Graph,
        stage: &StageEntry,
        starts: Option<Vec<f64>>,
        hooks: &mut [&mut dyn ModuleHook],
    ) -> Timeline {
        let recording_us = self.registry.epoch_us();
        self.apply_deltas(&stage.counter_deltas);
        let times = stage.ops.iter().flat_map(|e| e.records.iter().map(|k| k.time_s * 1e6));
        self.kernel_time_us.observe_tallied(&stage.kernel_buckets, times);
        if let Some(w) = stage.last_draw_w {
            self.power_w.set(w);
        }
        let resolved = starts.is_some();
        let mut starts = starts.unwrap_or_else(|| Vec::with_capacity(graph.len()));
        let mut events = Vec::with_capacity(graph.len());
        for (index, (node, entry)) in graph.nodes().iter().zip(&stage.ops).enumerate() {
            if !resolved {
                starts.push(if index == 0 { recording_us } else { self.registry.epoch_us() });
            }
            let event = event(index, node, entry);
            for h in hooks.iter_mut() {
                h.on_op(&event);
            }
            events.push(event);
        }
        let ends = starts.iter().skip(1).copied().chain([self.registry.epoch_us()]);
        let windows = starts.iter().zip(ends);
        let ops = graph.nodes().iter().zip(&stage.ops);
        self.registry.record_spans(ops.zip(windows).map(|((node, entry), (&start_us, end_us))| {
            SpanRecord {
                path: mmg_telemetry::nested_span_path(&node.path),
                start_us,
                dur_us: end_us - start_us,
                counter_deltas: Arc::clone(&entry.visible),
            }
        }));
        Timeline::new(events)
    }

    /// Bumps the registry counters named in `deltas`. Every name is
    /// resolved to a handle — including zero deltas, so counters a
    /// kernel-by-kernel execution registers at zero get created. With a
    /// memo, the list's handles are kept for its next application, which
    /// then adds without any lookup; a memo-less profiler's lists are
    /// never seen again, so theirs are resolved once and dropped.
    fn apply_deltas(&self, deltas: &Deltas) {
        let resolve = || -> Vec<Counter> {
            deltas.iter().map(|(full, _)| self.registry.counter_handle(full)).collect()
        };
        let mut by_list = self.handles.lock().expect("counter handle cache poisoned");
        let fresh;
        let handles = if self.memo.is_some() {
            let key = Arc::as_ptr(deltas) as usize;
            &by_list.entry(key).or_insert_with(|| (Arc::clone(deltas), resolve())).1
        } else {
            fresh = resolve();
            &fresh
        };
        for (c, (_, delta)) in handles.iter().zip(deltas.iter()) {
            if *delta > 0 {
                c.add(*delta);
            }
        }
    }

    /// Replays sampled GEMM and softmax sector streams for one attention
    /// call through a fresh, detached L1/L2 hierarchy. The call's
    /// sequence geometry is mapped back onto the video activation
    /// layout: temporal attention attends across frames per pixel
    /// (`seq = frames`, `batch = H·W`), spatial attention attends across
    /// pixels per frame (`seq = H·W`, `batch = frames`).
    fn simulate_attention_caches(
        &self,
        shape: &mmg_attn::AttentionShape,
        kind: AttnKind,
    ) -> HierarchyStats {
        let temporal = kind == AttnKind::Temporal;
        let channels = (shape.heads * shape.head_dim).max(1);
        let access = if temporal {
            VideoAttentionAccess {
                frames: shape.seq_q.max(1),
                channels,
                hw: shape.batch.max(1),
                elem_bytes: self.elem_bytes,
            }
        } else {
            VideoAttentionAccess {
                frames: shape.batch.max(1),
                channels,
                hw: shape.seq_q.max(1),
                elem_bytes: self.elem_bytes,
            }
        };
        let spec = self.engine.spec();
        let mut total = HierarchyStats::default();
        for kernel in [AttentionKernel::Gemm, AttentionKernel::Softmax] {
            let stats = access.simulate_detached(kernel, temporal, spec, self.cache_probes);
            total.l1.accesses += stats.l1.accesses;
            total.l1.hits += stats.l1.hits;
            total.l2.accesses += stats.l2.accesses;
            total.l2.hits += stats.l2.hits;
        }
        total
    }
}

/// The event for the op at `node`, costed by `entry`.
fn event(index: usize, node: &Node, entry: &OpCostEntry) -> OpEvent {
    let attention = node.op.attention_shape().map(|(shape, kind)| AttnCallInfo {
        kind,
        seq_q: shape.seq_q,
        seq_kv: shape.seq_kv,
        batch: shape.batch,
        heads: shape.heads,
    });
    OpEvent {
        index,
        path: Arc::clone(&node.path),
        category: node.op.category(),
        time_s: entry.time_s,
        flops: entry.flops,
        hbm_bytes: entry.hbm_bytes,
        energy_j: entry.energy_j,
        kernels: Arc::clone(&entry.records),
        attention,
        counters: Arc::clone(&entry.visible),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmg_attn::AttentionShape;
    use mmg_graph::{AttnKind, Op, OpCategory};

    fn attn_graph() -> Graph {
        let mut g = Graph::new();
        g.push(
            "blk.attn",
            Op::Attention {
                shape: AttentionShape::self_attn(2, 8, 4096, 40),
                kind: AttnKind::SpatialSelf,
            },
        );
        g.push("blk.ffn", Op::Linear { tokens: 8192, in_features: 320, out_features: 1280 });
        g
    }

    #[test]
    fn profile_produces_event_per_node() {
        let t = Profiler::new(DeviceSpec::a100_80gb(), AttnImpl::Flash).profile(&attn_graph());
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[0].category, OpCategory::Attention);
        assert!(t.events()[0].attention.is_some());
        assert!(t.events()[1].attention.is_none());
    }

    #[test]
    fn baseline_slower_than_flash_on_attention() {
        let g = attn_graph();
        let base = Profiler::new(DeviceSpec::a100_80gb(), AttnImpl::Baseline).profile(&g);
        let flash = Profiler::new(DeviceSpec::a100_80gb(), AttnImpl::Flash).profile(&g);
        assert!(base.total_time_s() > flash.total_time_s());
        // The linear layer is unchanged.
        assert!((base.events()[1].time_s - flash.events()[1].time_s).abs() < 1e-12);
    }

    #[test]
    fn kernel_records_sum_to_event_time() {
        let t = Profiler::new(DeviceSpec::a100_80gb(), AttnImpl::Baseline).profile(&attn_graph());
        for ev in t.events() {
            let s: f64 = ev.kernels.iter().map(|k| k.time_s).sum();
            assert!((s - ev.time_s).abs() < 1e-12);
        }
    }

    #[test]
    fn op_events_carry_counter_deltas() {
        let registry = mmg_telemetry::Registry::new();
        let t = Profiler::with_registry(DeviceSpec::a100_80gb(), AttnImpl::Flash, &registry)
            .profile(&attn_graph());
        for ev in t.events() {
            let launches = ev
                .counters
                .iter()
                .find(|(name, _)| name == "gpu_kernel_launches_total")
                .map(|(_, delta)| *delta)
                .unwrap_or(0);
            assert_eq!(launches as usize, ev.kernels.len(), "op {}", ev.path);
            let flops = ev
                .counters
                .iter()
                .find(|(name, _)| name == "gpu_flops_total")
                .map(|(_, delta)| *delta)
                .unwrap_or(0);
            assert_eq!(flops, ev.flops, "op {}", ev.path);
        }
        // Spans were recorded per op with the same attribution.
        let spans = registry.finished_spans();
        assert_eq!(spans.len(), t.events().len());
        assert_eq!(&*spans[0].path, "blk.attn");
    }

    #[test]
    fn cache_sim_populates_l1_counters_for_attention() {
        let registry = mmg_telemetry::Registry::new();
        let t = Profiler::with_registry(DeviceSpec::a100_80gb(), AttnImpl::Flash, &registry)
            .with_cache_sim(20_000)
            .profile(&attn_graph());
        assert!(registry.counter("gpu_l1_accesses_total").get() > 0);
        assert!(registry.counter("gpu_l1_hits_total").get() > 0);
        // Only the attention op carries cache deltas.
        let attn_ev = &t.events()[0];
        assert!(attn_ev
            .counters
            .iter()
            .any(|(name, delta)| name == "gpu_l1_accesses_total" && *delta > 0));
        let linear_ev = &t.events()[1];
        assert!(!linear_ev
            .counters
            .iter()
            .any(|(name, _)| name == "gpu_l1_accesses_total"));
    }

    #[test]
    fn opt_passes_speed_up_eager_attention_and_record_counters() {
        let g = attn_graph();
        let eager_reg = mmg_telemetry::Registry::new();
        let eager = Profiler::with_registry(DeviceSpec::a100_80gb(), AttnImpl::Baseline, &eager_reg)
            .profile(&g);
        let opt_reg = mmg_telemetry::Registry::new();
        let opt = Profiler::with_registry(DeviceSpec::a100_80gb(), AttnImpl::Baseline, &opt_reg)
            .with_opt_config(OptConfig::all())
            .profile(&g);
        assert!(opt.total_time_s() < eager.total_time_s());
        assert!(opt_reg.counter("kernel_fused_total").get() > 0);
        assert!(opt_reg.counter("kernel_launches_elided_total").get() > 0);
        assert!(opt_reg.counter("kernel_opt_hbm_bytes_saved_total").get() > 0);
        // The eager run never creates the pass counters.
        assert!(!eager_reg.render_prometheus().contains("kernel_fused_total"));
    }

    #[test]
    fn memo_separates_opt_configs() {
        let g = attn_graph();
        let memo = Arc::new(CostMemo::new());
        let registry = mmg_telemetry::Registry::new();
        let eager = Profiler::with_registry(DeviceSpec::a100_80gb(), AttnImpl::Baseline, &registry)
            .with_memo(Arc::clone(&memo))
            .profile(&g);
        let opt = Profiler::with_registry(DeviceSpec::a100_80gb(), AttnImpl::Baseline, &registry)
            .with_opt_config(OptConfig::all())
            .with_memo(Arc::clone(&memo))
            .profile(&g);
        // The optimized profiler must miss on every op (different keys),
        // not replay the eager entries.
        assert!(opt.total_time_s() < eager.total_time_s());
        assert_eq!(memo.hits(), 0);
    }

    #[test]
    fn fp32_is_slower_than_fp16_for_memory_bound() {
        let mut g = Graph::new();
        g.push("n", Op::LayerNorm { rows: 1 << 16, cols: 1024 });
        let p16 = Profiler::new(DeviceSpec::a100_80gb(), AttnImpl::Flash);
        let p32 = Profiler::new(DeviceSpec::a100_80gb(), AttnImpl::Flash).with_elem_bytes(4);
        assert!(p32.profile(&g).total_time_s() > p16.profile(&g).total_time_s());
    }
}
