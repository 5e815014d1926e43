//! Memoized operator costs.
//!
//! Generative pipelines are dominated by *repeated* structure — a 50-step
//! denoising loop evaluates the same UNet kernel set every step, and the
//! paper's sweeps re-profile near-identical graphs point after point. A
//! [`CostMemo`] lets every profiler sharing it pay the roofline /
//! wave-quantization / cache-simulation cost once per *distinct* operator
//! configuration:
//!
//! - The [`MemoKey`] canonicalizes everything a cost depends on: the
//!   fully-shaped [`Op`], the attention implementation (only for
//!   attention ops), the element width, the convolution algorithm (only
//!   for convolutions), the cache-simulation probe budget (only for
//!   attention ops), and the [device fingerprint]
//!   (mmg_gpu::DeviceSpec::fingerprint).
//! - The [`OpCostEntry`] stores the op's timeline contribution *and* the
//!   exact telemetry counter deltas its execution charges, computed
//!   without touching a registry.
//!
//! On top of the per-op map sits a *stage tier*: whole graphs keyed by
//! [`Graph::fingerprint`](mmg_graph::Graph::fingerprint) plus the
//! profiler configuration. A stage entry is the graph's list of shared
//! per-op entries with their counter deltas and kernel-time histogram
//! buckets summed in advance, so profiling a graph a second time — the
//! next denoising step's UNet, the baseline and flash runs of a speedup
//! table — resolves it without one lookup per op.
//!
//! The profiler records every graph through one path: it resolves each
//! op's entry (per-op lookups, or one stage lookup), builds the graph's
//! [`StageEntry`] when it was not stored yet, and applies that stage to
//! the registry once. A memo-less profile builds the same stage from
//! fresh entries, so cold, intra-run and whole-stage hits leave the
//! registry bit-identical; the property test in `tests/proptest_memo.rs`
//! holds the paths to byte equality.
//!
//! Both maps are [`ShardedLru`]s, safe to share across the worker
//! threads of a parallel experiment sweep.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use mmg_attn::AttnImpl;
use mmg_gpu::{HierarchyStats, ShardedLru};
use mmg_graph::optimize::{OptConfig, OptStats};
use mmg_graph::Op;
use mmg_kernels::conv::ConvAlgorithm;
use mmg_telemetry::Histogram;

use crate::KernelRecord;

/// Canonical identity of one operator-cost evaluation.
///
/// Fields that cannot influence an op's lowering are normalized away
/// (e.g. the attention implementation of a `Linear` op is `None`), which
/// is what lets the baseline and flash profilers of a speedup comparison
/// share every non-attention entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemoKey {
    /// The fully-shaped operator.
    pub op: Op,
    /// Attention implementation; `None` for non-attention ops.
    pub attn: Option<AttnImpl>,
    /// Activation element width in bytes.
    pub elem_bytes: usize,
    /// Convolution algorithm; `None` for non-convolution ops.
    pub conv_algo: Option<ConvAlgorithm>,
    /// Cache-simulation probe budget; 0 for non-attention ops or when
    /// cache simulation is disabled.
    pub cache_probes: usize,
    /// Optimization passes rewriting the lowered kernel stream. The
    /// identity config and any enabled pass produce different kernels,
    /// so they memoize separately.
    pub opt: OptConfig,
    /// [`mmg_gpu::DeviceSpec::fingerprint`] of the simulated device.
    pub device_fingerprint: u64,
}

impl MemoKey {
    /// Builds the key for one op under a profiler's configuration,
    /// normalizing away the knobs that cannot affect this op.
    #[must_use]
    pub fn for_op(
        op: &Op,
        attn: AttnImpl,
        elem_bytes: usize,
        conv_algo: ConvAlgorithm,
        cache_probes: usize,
        opt: OptConfig,
        device_fingerprint: u64,
    ) -> Self {
        let is_attn = matches!(op, Op::Attention { .. });
        MemoKey {
            op: op.clone(),
            attn: is_attn.then_some(attn),
            elem_bytes,
            conv_algo: matches!(op, Op::Conv2d { .. }).then_some(conv_algo),
            cache_probes: if is_attn { cache_probes } else { 0 },
            opt,
            device_fingerprint,
        }
    }
}

/// Everything the profiler records about an operator's execution.
///
/// The per-kernel records and the delta lists are behind `Arc`s so the
/// record path can hand them to [`crate::OpEvent`]s and span records by
/// reference count — a 50-step denoising loop replays
/// the same UNet entries hundreds of thousands of times, and deep-
/// cloning the string-heavy vectors each hit dominated replay cost.
#[derive(Debug, Clone, PartialEq)]
pub struct OpCostEntry {
    /// Summed kernel time, seconds.
    pub time_s: f64,
    /// Summed kernel energy, joules.
    pub energy_j: f64,
    /// Summed FLOPs.
    pub flops: u64,
    /// Summed HBM bytes.
    pub hbm_bytes: u64,
    /// Per-kernel records, in launch order.
    pub records: Arc<Vec<KernelRecord>>,
    /// Every counter an execution of this op touches, as
    /// `(full metric name, delta)` sorted the way
    /// [`mmg_telemetry::CounterSnapshot::delta_since`] sorts them.
    /// Zero deltas are *kept*: recording applies them so counters a
    /// kernel-by-kernel execution registers at zero (e.g.
    /// `kernel_flops_total` of a copy kernel) exist in the registry;
    /// event/span attribution filters them out via
    /// [`OpCostEntry::visible`].
    pub counter_deltas: Arc<Vec<(String, u64)>>,
    /// The non-zero subset of `counter_deltas`, in the exact form
    /// [`mmg_telemetry::CounterSnapshot::delta_since`] reports —
    /// precomputed once (the same `Arc` when no delta is zero) so
    /// recording attaches it to events and spans without filtering or
    /// cloning.
    pub visible: Arc<Vec<(String, u64)>>,
}

impl OpCostEntry {
    /// Builds an entry, precomputing the visible (non-zero) delta list
    /// from `counter_deltas`.
    #[must_use]
    pub fn new(
        time_s: f64,
        energy_j: f64,
        flops: u64,
        hbm_bytes: u64,
        records: Arc<Vec<KernelRecord>>,
        counter_deltas: Vec<(String, u64)>,
    ) -> Self {
        let counter_deltas = Arc::new(counter_deltas);
        let visible = if counter_deltas.iter().all(|(_, d)| *d > 0) {
            Arc::clone(&counter_deltas)
        } else {
            Arc::new(counter_deltas.iter().filter(|(_, d)| *d > 0).cloned().collect())
        };
        OpCostEntry { time_s, energy_j, flops, hbm_bytes, records, counter_deltas, visible }
    }
}

/// Canonical identity of one whole-graph profile: the op sequence (by
/// fingerprint and length) under every profiler knob a [`MemoKey`]
/// carries, un-normalized.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct StageKey {
    pub(crate) ops: u128,
    pub(crate) len: usize,
    pub(crate) attn: AttnImpl,
    pub(crate) elem_bytes: usize,
    pub(crate) conv_algo: ConvAlgorithm,
    pub(crate) cache_probes: usize,
    pub(crate) opt: OptConfig,
    pub(crate) device_fingerprint: u64,
}

/// One resolved graph, ready to record in one step.
#[derive(Debug)]
pub(crate) struct StageEntry {
    /// The per-op entries, in graph order (shared with the op tier).
    pub(crate) ops: Vec<Arc<OpCostEntry>>,
    /// Every op's `counter_deltas` summed per counter, zero sums kept
    /// so recording creates each counter a kernel-by-kernel execution
    /// registers.
    pub(crate) counter_deltas: Arc<Vec<(String, u64)>>,
    /// `gpu_kernel_time_us` bucket counts of every kernel
    /// ([`Histogram::tally`] layout).
    pub(crate) kernel_buckets: Vec<u64>,
    /// Draw of the graph's last kernel: the power gauge's final value.
    pub(crate) last_draw_w: Option<f64>,
}

impl StageEntry {
    /// Sums `ops`' deltas and kernel-time buckets (tallied with
    /// `kernel_time_us`'s edges). Each distinct entry is summed once and
    /// scaled by its multiplicity: a stage repeats a few blocks many
    /// times. Sums wrap like the registry's atomic adds.
    pub(crate) fn new(ops: Vec<Arc<OpCostEntry>>, kernel_time_us: &Histogram) -> Self {
        let mut distinct: HashMap<*const OpCostEntry, (&OpCostEntry, u64)> = HashMap::new();
        for e in &ops {
            distinct.entry(Arc::as_ptr(e)).or_insert((e, 0)).1 += 1;
        }
        let mut deltas: BTreeMap<&str, u64> = BTreeMap::new();
        let mut kernel_buckets = kernel_time_us.tally([]);
        for (e, n) in distinct.into_values() {
            for (name, d) in e.counter_deltas.iter() {
                let sum = deltas.entry(name).or_default();
                *sum = sum.wrapping_add(d.wrapping_mul(n));
            }
            let tally = kernel_time_us.tally(e.records.iter().map(|k| k.time_s * 1e6));
            for (b, c) in kernel_buckets.iter_mut().zip(tally) {
                *b += c * n;
            }
        }
        let counter_deltas =
            Arc::new(deltas.into_iter().map(|(name, d)| (name.to_string(), d)).collect());
        let last_draw_w = ops.iter().rev().find_map(|e| e.records.last()).map(|k| k.draw_w);
        StageEntry { ops, counter_deltas, kernel_buckets, last_draw_w }
    }
}

/// A shared, bounded memo of operator costs (see module docs).
#[derive(Debug)]
pub struct CostMemo {
    lru: ShardedLru<MemoKey, OpCostEntry>,
    /// The stage tier, created by its first insert so a fresh memo stays
    /// one allocation.
    stages: OnceLock<ShardedLru<StageKey, StageEntry>>,
    stage_capacity: usize,
}

impl Default for CostMemo {
    fn default() -> Self {
        CostMemo::new()
    }
}

impl CostMemo {
    /// Default capacity: generous for whole-suite runs (every distinct
    /// operator across all nine paper models fits with room to spare)
    /// while still bounding a pathological sweep.
    const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Stage-tier capacity. A stage entry is a pointer per op plus its
    /// summed deltas; the op entries it points at are shared.
    const STAGE_CAPACITY: usize = 1 << 10;

    /// A memo with the default capacity.
    #[must_use]
    pub fn new() -> Self {
        CostMemo::with_capacity(CostMemo::DEFAULT_CAPACITY)
    }

    /// A memo bounded to roughly `capacity` entries (LRU-evicted per
    /// shard beyond that).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        CostMemo {
            lru: ShardedLru::new(capacity),
            stages: OnceLock::new(),
            stage_capacity: CostMemo::STAGE_CAPACITY.min(capacity),
        }
    }

    /// Looks up an entry, refreshing its recency.
    #[must_use]
    pub fn lookup(&self, key: &MemoKey) -> Option<Arc<OpCostEntry>> {
        self.lru.get(key)
    }

    /// Stores an entry computed by a miss path, returning the shared copy.
    pub fn store(&self, key: MemoKey, entry: OpCostEntry) -> Arc<OpCostEntry> {
        self.lru.insert(key, entry)
    }

    /// Looks up a whole graph. A hit counts as one op-tier hit per op of
    /// the graph, so [`CostMemo::hits`] and [`CostMemo::misses`] read as
    /// if every op had been looked up; a miss counts nothing (the ops are
    /// looked up next).
    pub(crate) fn lookup_stage(&self, key: &StageKey) -> Option<Arc<StageEntry>> {
        let stage = self.stages.get()?.get(key)?;
        self.lru.credit_hits(key.len as u64);
        Some(stage)
    }

    /// Stores a whole graph's entry after its ops were resolved,
    /// returning the shared copy.
    pub(crate) fn store_stage(&self, key: StageKey, entry: StageEntry) -> Arc<StageEntry> {
        let stages = self.stages.get_or_init(|| ShardedLru::new(self.stage_capacity));
        stages.insert(key, entry)
    }

    /// Lookups served from the memo.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.lru.hits()
    }

    /// Lookups that had to compute.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.lru.misses()
    }

    /// `hits / (hits + misses)`, 0 before the first lookup.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        self.lru.hit_rate()
    }

    /// Distinct op entries resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether no entries are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Drops all entries and statistics (e.g. between benchmark phases).
    pub fn clear(&self) {
        self.lru.clear();
        if let Some(stages) = self.stages.get() {
            stages.clear();
        }
    }
}

/// The counter deltas one op's execution charges — the timing-engine
/// counters, the per-kind kernel counters, the optimization-pass
/// counters and (for attention ops with cache simulation) the L1/L2
/// counters — computed without touching a registry; the executor's one
/// record path applies them, summed per graph. Sorted by
/// `(name, labels)` like
/// [`mmg_telemetry::CounterSnapshot::delta_since`]; zero deltas are
/// kept so recording creates every counter a kernel-by-kernel execution
/// registers at zero (the filtered form lives in
/// [`OpCostEntry::visible`]).
pub(crate) fn synthetic_op_deltas(
    records: &[KernelRecord],
    cache: Option<HierarchyStats>,
    opt_stats: OptStats,
) -> Vec<(String, u64)> {
    /// One kernel kind's share of an op's labelled counters.
    struct KindTotals<'r> {
        kind: &'r str,
        launches: u64,
        flops: u64,
        hbm_bytes: u64,
        energy_uj: u64,
        compute_bound: u64,
        memory_bound: u64,
    }
    let mut kinds: Vec<KindTotals> = Vec::new();
    let (mut launches, mut flops, mut hbm_bytes, mut energy_uj) = (0u64, 0u64, 0u64, 0u64);
    let (mut compute_bound, mut memory_bound, mut idle_slots) = (0u64, 0u64, 0u64);
    for k in records {
        let uj = mmg_gpu::quantize_uj(k.energy_j);
        let memory = k.memory_s > k.compute_s;
        launches += 1;
        flops += k.flops;
        hbm_bytes += k.hbm_bytes;
        energy_uj += uj;
        idle_slots += k.wave_quant_idle_slots;
        let i = match kinds.iter().position(|t| t.kind == k.kind) {
            Some(i) => i,
            None => {
                kinds.push(KindTotals {
                    kind: &k.kind,
                    launches: 0,
                    flops: 0,
                    hbm_bytes: 0,
                    energy_uj: 0,
                    compute_bound: 0,
                    memory_bound: 0,
                });
                kinds.len() - 1
            }
        };
        let t = &mut kinds[i];
        t.launches += 1;
        t.flops += k.flops;
        t.hbm_bytes += k.hbm_bytes;
        t.energy_uj += uj;
        if memory {
            memory_bound += 1;
            t.memory_bound += 1;
        } else {
            compute_bound += 1;
            t.compute_bound += 1;
        }
    }

    // (name, full name, delta); a counter is listed iff the execution
    // touches it, so some zero deltas stay (see the doc comment).
    let mut out: Vec<(&'static str, String, u64)> = Vec::new();
    let mut plain = |name: &'static str, delta: u64| out.push((name, name.to_string(), delta));
    // Pass and idle-slot counters exist only once something charged them.
    for (name, delta) in [
        ("kernel_fused_total", opt_stats.kernels_fused),
        ("kernel_launches_elided_total", opt_stats.launches_elided),
        ("kernel_opt_hbm_bytes_saved_total", opt_stats.hbm_bytes_saved),
        ("gpu_wave_quant_idle_slots_total", idle_slots),
    ] {
        if delta > 0 {
            plain(name, delta);
        }
    }
    if launches > 0 {
        plain("gpu_kernel_launches_total", launches);
        plain("gpu_flops_total", flops);
        plain("gpu_hbm_bytes_total", hbm_bytes);
        // Energy is charged even for a zero-quantum kernel.
        plain("gpu_energy_uj_total", energy_uj);
    }
    if memory_bound > 0 {
        plain("gpu_kernels_memory_bound_total", memory_bound);
    }
    if compute_bound > 0 {
        plain("gpu_kernels_compute_bound_total", compute_bound);
    }
    if let Some(stats) = cache {
        plain("gpu_l1_accesses_total", stats.l1.accesses);
        plain("gpu_l1_hits_total", stats.l1.hits);
        plain("gpu_l2_accesses_total", stats.l2.accesses);
        plain("gpu_l2_hits_total", stats.l2.hits);
    }
    let labelled = |name: &'static str, kind: &str, regime: &str| {
        let mut full = String::with_capacity(name.len() + kind.len() + regime.len() + 20);
        full.push_str(name);
        full.push_str("{kind=\"");
        full.push_str(kind);
        if !regime.is_empty() {
            full.push_str("\",regime=\"");
            full.push_str(regime);
        }
        full.push_str("\"}");
        full
    };
    for t in &kinds {
        for (name, delta) in [
            ("kernel_launches_total", t.launches),
            ("kernel_flops_total", t.flops),
            ("kernel_hbm_bytes_total", t.hbm_bytes),
            ("kernel_energy_uj_total", t.energy_uj),
        ] {
            out.push((name, labelled(name, t.kind, ""), delta));
        }
        for (regime, delta) in [("compute", t.compute_bound), ("memory", t.memory_bound)] {
            if delta > 0 {
                let name = "kernel_regime_total";
                out.push((name, labelled(name, t.kind, regime), delta));
            }
        }
    }
    // The registry's order: by name, then by rendered labels.
    out.sort_unstable_by(|a, b| (a.0, &a.1[a.0.len()..]).cmp(&(b.0, &b.1[b.0.len()..])));
    out.into_iter().map(|(_, full, delta)| (full, delta)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmg_attn::AttentionShape;
    use mmg_graph::AttnKind;

    fn linear() -> Op {
        Op::Linear { tokens: 64, in_features: 128, out_features: 256 }
    }

    #[test]
    fn key_normalizes_irrelevant_knobs() {
        let fp = mmg_gpu::DeviceSpec::a100_80gb().fingerprint();
        let opt = OptConfig::default();
        let base = MemoKey::for_op(
            &linear(), AttnImpl::Baseline, 2, ConvAlgorithm::ImplicitGemm, 9, opt, fp,
        );
        let flash =
            MemoKey::for_op(&linear(), AttnImpl::Flash, 2, ConvAlgorithm::Winograd, 0, opt, fp);
        assert_eq!(base, flash, "linear ops ignore attention/conv/cache knobs");
        let attn_op = Op::Attention {
            shape: AttentionShape::self_attn(1, 8, 256, 64),
            kind: AttnKind::SpatialSelf,
        };
        let a = MemoKey::for_op(
            &attn_op, AttnImpl::Baseline, 2, ConvAlgorithm::ImplicitGemm, 0, opt, fp,
        );
        let b =
            MemoKey::for_op(&attn_op, AttnImpl::Flash, 2, ConvAlgorithm::ImplicitGemm, 0, opt, fp);
        assert_ne!(a, b, "attention ops key on the implementation");
    }

    #[test]
    fn key_separates_opt_configs() {
        let fp = mmg_gpu::DeviceSpec::a100_80gb().fingerprint();
        let id = MemoKey::for_op(
            &linear(), AttnImpl::Flash, 2, ConvAlgorithm::ImplicitGemm,
            0, OptConfig::default(), fp,
        );
        let opt = MemoKey::for_op(
            &linear(), AttnImpl::Flash, 2, ConvAlgorithm::ImplicitGemm,
            0, OptConfig::all(), fp,
        );
        assert_ne!(id, opt, "optimized streams must not replay eager entries");
    }

    #[test]
    fn key_separates_devices() {
        let a = MemoKey::for_op(
            &linear(),
            AttnImpl::Flash,
            2,
            ConvAlgorithm::ImplicitGemm,
            0,
            OptConfig::default(),
            mmg_gpu::DeviceSpec::a100_80gb().fingerprint(),
        );
        let v = MemoKey {
            device_fingerprint: mmg_gpu::DeviceSpec::v100_32gb().fingerprint(),
            ..a.clone()
        };
        assert_ne!(a, v);
    }

    #[test]
    fn memo_round_trips_entries() {
        let memo = CostMemo::new();
        let key = MemoKey::for_op(
            &linear(),
            AttnImpl::Flash,
            2,
            ConvAlgorithm::ImplicitGemm,
            0,
            OptConfig::default(),
            42,
        );
        assert!(memo.lookup(&key).is_none());
        let entry = OpCostEntry::new(
            1e-5,
            3e-3,
            100,
            200,
            Arc::new(vec![]),
            vec![("gpu_flops_total".to_string(), 100), ("zero_total".to_string(), 0)],
        );
        assert_eq!(*entry.visible, vec![("gpu_flops_total".to_string(), 100)]);
        memo.store(key.clone(), entry.clone());
        assert_eq!(memo.lookup(&key).as_deref(), Some(&entry));
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.misses(), 1);
        assert_eq!(memo.len(), 1);
        memo.clear();
        assert!(memo.is_empty());
    }

    #[test]
    fn stage_tier_serves_repeat_graphs_and_keys_on_ops() {
        let memo = Arc::new(CostMemo::new());
        let profiler = crate::Profiler::with_registry(
            mmg_gpu::DeviceSpec::a100_80gb(),
            AttnImpl::Flash,
            &mmg_telemetry::Registry::new(),
        )
        .with_memo(Arc::clone(&memo));
        let graph = |last_out: usize| {
            let mut g = mmg_graph::Graph::new();
            g.push("a", linear());
            g.push("b", Op::Linear { tokens: 64, in_features: 128, out_features: last_out });
            g
        };
        let stage = |m: &CostMemo| m.stages.get().map_or((0, 0), |s| (s.hits(), s.len()));
        assert!(memo.stages.get().is_none(), "the stage tier is empty until its first insert");
        let _ = profiler.profile(&graph(256));
        assert_eq!(stage(&memo), (0, 1));
        let _ = profiler.profile(&graph(256));
        assert_eq!(stage(&memo), (1, 1), "a repeat graph is a stage hit");
        assert_eq!((memo.hits(), memo.misses()), (3, 1), "a stage hit credits one hit per op");
        let _ = profiler.profile(&graph(512));
        assert_eq!(stage(&memo), (1, 2), "a graph differing in one op gets its own stage");
    }

    #[test]
    fn synthetic_deltas_match_recorded_counters() {
        // Profile single-op graphs covering a compute-bound GEMM, a
        // memory-bound softmax (baseline attention, cache-simulated),
        // wave-quantized and zero-FLOP kernels through the record path
        // on a fresh registry. The registry's own delta must be exactly
        // the event's attribution, and each counter must equal the sum an
        // independent kernel-by-kernel charge of the records gives.
        let registry = mmg_telemetry::Registry::new();
        let profiler = crate::Profiler::with_registry(
            mmg_gpu::DeviceSpec::a100_80gb(),
            AttnImpl::Baseline,
            &registry,
        )
        .with_cache_sim(4096);
        let ops = [
            Op::Attention {
                shape: AttentionShape::self_attn(2, 8, 1024, 64),
                kind: AttnKind::SpatialSelf,
            },
            Op::Linear { tokens: 4097, in_features: 1280, out_features: 5120 },
            Op::Memcpy { bytes: 1 << 20, amplification: 1.0 },
            Op::LayerNorm { rows: 4096, cols: 1024 },
        ];
        let mut saw_zero_flop_kernel = false;
        for op in ops {
            let is_attention = matches!(op, Op::Attention { .. });
            let mut g = mmg_graph::Graph::new();
            g.push("op", op);
            let snap = registry.counters_snapshot();
            let t = profiler.profile(&g);
            let live = snap.delta_since(&registry);
            let ev = &t.events()[0];
            assert_eq!(live, *ev.counters, "{:?}", ev.path);

            let mut expect: BTreeMap<String, u64> = BTreeMap::new();
            let mut charge = |name: String, delta: u64| {
                if delta > 0 {
                    *expect.entry(name).or_default() += delta;
                }
            };
            for k in ev.kernels.iter() {
                let kind = &k.kind;
                let regime = if k.memory_s > k.compute_s { "memory" } else { "compute" };
                let uj = mmg_gpu::quantize_uj(k.energy_j);
                charge("gpu_kernel_launches_total".into(), 1);
                charge("gpu_flops_total".into(), k.flops);
                charge("gpu_hbm_bytes_total".into(), k.hbm_bytes);
                charge("gpu_energy_uj_total".into(), uj);
                charge(format!("gpu_kernels_{regime}_bound_total"), 1);
                charge("gpu_wave_quant_idle_slots_total".into(), k.wave_quant_idle_slots);
                charge(format!("kernel_launches_total{{kind=\"{kind}\"}}"), 1);
                charge(format!("kernel_flops_total{{kind=\"{kind}\"}}"), k.flops);
                charge(format!("kernel_hbm_bytes_total{{kind=\"{kind}\"}}"), k.hbm_bytes);
                charge(format!("kernel_energy_uj_total{{kind=\"{kind}\"}}"), uj);
                charge(format!("kernel_regime_total{{kind=\"{kind}\",regime=\"{regime}\"}}"), 1);
                saw_zero_flop_kernel |= k.flops == 0;
            }
            let cache: Vec<_> =
                live.iter().filter(|(n, _)| n.starts_with("gpu_l")).cloned().collect();
            assert_eq!(!cache.is_empty(), is_attention);
            expect.extend(cache);
            let expect: Vec<_> = expect.into_iter().collect();
            let mut sorted_live = live.clone();
            sorted_live.sort();
            assert_eq!(sorted_live, expect, "{:?}", ev.path);
        }
        assert!(saw_zero_flop_kernel);
        // Counters charged zero still exist, as a kernel-by-kernel charge
        // registers them: the memcpy kernel's FLOP counter.
        assert!(registry.render_prometheus().contains("kernel_flops_total{kind=\"memcpy\"} 0"));
        assert!(registry.counter("gpu_wave_quant_idle_slots_total").get() > 0);
    }

    #[test]
    fn synthetic_deltas_include_cache_stats() {
        let stats = HierarchyStats {
            l1: mmg_gpu::CacheStats { accesses: 100, hits: 80 },
            l2: mmg_gpu::CacheStats { accesses: 20, hits: 5 },
        };
        let deltas = synthetic_op_deltas(&[], Some(stats), OptStats::default());
        assert_eq!(
            deltas,
            vec![
                ("gpu_l1_accesses_total".to_string(), 100),
                ("gpu_l1_hits_total".to_string(), 80),
                ("gpu_l2_accesses_total".to_string(), 20),
                ("gpu_l2_hits_total".to_string(), 5),
            ]
        );
    }

    #[test]
    fn synthetic_deltas_include_pass_counters_when_nonzero() {
        let none = synthetic_op_deltas(&[], None, OptStats::default());
        assert!(none.is_empty(), "identity passes add no counters");
        let stats =
            OptStats { kernels_fused: 3, launches_elided: 0, hbm_bytes_saved: 4096 };
        let deltas = synthetic_op_deltas(&[], None, stats);
        assert_eq!(
            deltas,
            vec![
                ("kernel_fused_total".to_string(), 3),
                ("kernel_opt_hbm_bytes_saved_total".to_string(), 4096),
            ]
        );
    }
}
