//! Property test: memoized profiling is observationally identical to
//! unmemoized profiling.
//!
//! For arbitrary graphs (with repeated ops, so the memo actually hits),
//! a profiler with a [`CostMemo`] must produce bit-identical
//! [`mmg_profiler::KernelRecord`]s and [`mmg_profiler::OpEvent`]s,
//! identical per-op span attribution, and a byte-identical Prometheus
//! rendering of the registry — whether entries are computed cold,
//! replayed within one run, or replayed from a previous run's memo op by
//! op or as a whole stage; at top level or under an open parent span;
//! with or without a module hook watching. Every run's op spans tile the
//! profile call in op order, and share the graph's paths rather than
//! copying them.

use std::sync::Arc;

use mmg_attn::{AttentionShape, AttnImpl};
use mmg_gpu::DeviceSpec;
use mmg_graph::optimize::{ElemWidth, OptConfig};
use mmg_graph::{AttnKind, Graph, Op};
use mmg_profiler::{CostMemo, CountingHook, Profiler, Timeline};
use mmg_telemetry::Registry;
use proptest::prelude::*;

/// Expands one generated seed into an operator, cycling through every
/// family the lowering pass distinguishes (the vendored proptest stub
/// has no `prop_oneof`, so variant choice rides on the seed).
fn op_from_seed(seed: u64) -> Op {
    let mut s = seed;
    let mut next = move |span: u64| {
        s = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        s = (s ^ (s >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        1 + (s ^ (s >> 31)) % span
    };
    match seed % 7 {
        0 => Op::Linear {
            tokens: next(512) as usize,
            in_features: next(256) as usize,
            out_features: next(256) as usize,
        },
        1 => {
            let hw = 3 + next(20) as usize;
            Op::Conv2d {
                batch: next(2) as usize,
                c_in: next(24) as usize,
                c_out: next(24) as usize,
                h: hw,
                w: hw,
                kernel: next(3) as usize,
                stride: next(2) as usize,
            }
        }
        2 => {
            let kind = [AttnKind::SpatialSelf, AttnKind::Cross, AttnKind::Temporal, AttnKind::Causal]
                [(next(4) - 1) as usize];
            Op::Attention {
                shape: AttentionShape::self_attn(
                    next(2) as usize,
                    next(8) as usize,
                    7 + next(180) as usize,
                    7 + next(56) as usize,
                ),
                kind,
            }
        }
        3 => Op::LayerNorm { rows: next(1024) as usize, cols: next(512) as usize },
        4 => Op::Elementwise { elems: next(100_000) as usize, inputs: next(3) as usize },
        5 => Op::GroupNorm {
            batch: next(2) as usize,
            channels: 32 * next(8) as usize,
            h: next(32) as usize,
            w: next(32) as usize,
            groups: 32,
        },
        _ => Op::Memcpy { bytes: next(1_000_000), amplification: 1.0 + next(4) as f64 * 0.25 },
    }
}

/// Builds a graph that walks `seeds`' ops twice, so every op repeats at
/// least once and the memo's intra-run hit path is exercised.
fn graph_of(seeds: &[u64]) -> Graph {
    let mut g = Graph::new();
    for pass in 0..2 {
        for (i, &seed) in seeds.iter().enumerate() {
            g.push(format!("pass{pass}.op{i}"), op_from_seed(seed));
        }
    }
    g
}

/// Expands a seed into one of the eight pass combinations × three widths.
fn opt_from_seed(seed: u64) -> OptConfig {
    OptConfig {
        fuse: seed & 1 != 0,
        width: [ElemWidth::Fp16, ElemWidth::Fp8, ElemWidth::Int8][(seed / 2 % 3) as usize],
        graph_capture: seed & 8 != 0,
    }
}

/// How a profile call is made: at top level or under an open parent
/// span, with or without a [`CountingHook`].
#[derive(Debug, Clone, Copy)]
struct Mode {
    parent_span: bool,
    hook: bool,
}

const PLAIN: Mode = Mode { parent_span: false, hook: false };
const MODES: [Mode; 3] =
    [PLAIN, Mode { parent_span: true, hook: false }, Mode { parent_span: false, hook: true }];

fn profile(
    g: &Graph,
    attn: AttnImpl,
    opt: OptConfig,
    memo: Option<Arc<CostMemo>>,
) -> (Timeline, Registry) {
    profile_in(g, attn, opt, memo, PLAIN)
}

fn profile_in(
    g: &Graph,
    attn: AttnImpl,
    opt: OptConfig,
    memo: Option<Arc<CostMemo>>,
    mode: Mode,
) -> (Timeline, Registry) {
    let registry = Registry::new();
    let mut p = Profiler::with_registry(DeviceSpec::a100_80gb(), attn, &registry)
        .with_cache_sim(4096)
        .with_opt_config(opt);
    if let Some(memo) = memo {
        p = p.with_memo(memo);
    }
    let parent = mode.parent_span.then(|| registry.span("parent"));
    let before_us = registry.epoch_us();
    let t = if mode.hook {
        let mut hook = CountingHook::default();
        let t = p.profile_with_hooks(g, &mut [&mut hook]);
        // The hook sees every op, once, with the event's path.
        let mut seen = hook.counts().clone();
        for e in t.events() {
            let n = seen.get_mut(&*e.path).expect("hook saw the op");
            *n -= 1;
        }
        assert!(seen.values().all(|&n| n == 0), "hook counts differ from the events");
        t
    } else {
        p.profile(g)
    };
    let after_us = registry.epoch_us();
    check_op_spans(g, &t, &registry, (before_us, after_us), mode);
    drop(parent);
    (t, registry)
}

/// The spans and events of one profile call of `g`, taken between the
/// registry instants `window`: one span per op, in op order, each
/// starting where the previous one ended, all inside `window`. Event
/// paths are the nodes' own `Arc`s; so are span paths at top level,
/// while under the open parent span a span path is `"parent.<path>"`.
fn check_op_spans(g: &Graph, t: &Timeline, registry: &Registry, window: (f64, f64), mode: Mode) {
    let spans = registry.finished_spans();
    assert_eq!(spans.len(), g.len(), "one span per op ({mode:?})");
    let (before_us, after_us) = window;
    assert!(spans[0].start_us >= before_us, "{mode:?}: first span starts before the call");
    let mut reach = spans[0].start_us;
    for ((span, node), ev) in spans.iter().zip(g.nodes()).zip(t.events()) {
        assert!(
            (span.start_us - reach).abs() <= 1e-6,
            "span {} starts at {} µs, not where the previous ended ({reach} µs)",
            node.path,
            span.start_us
        );
        assert!(span.dur_us >= 0.0, "span {} has negative duration", node.path);
        reach = span.start_us + span.dur_us;
        assert!(Arc::ptr_eq(&ev.path, &node.path), "event path of {} is a copy", node.path);
        if mode.parent_span {
            assert_eq!(&*span.path, format!("parent.{}", node.path), "nested span path");
        } else {
            assert!(Arc::ptr_eq(&span.path, &node.path), "span path of {} is a copy", node.path);
        }
    }
    assert!(reach <= after_us, "{mode:?}: last span ends after the call");
}

/// Profiles `g` cold, then through a fresh memo three times — the first
/// run misses each distinct op once and replays its repeats, the second
/// and third are whole-stage hits — checking each against the cold run.
fn check_memo_paths(g: &Graph, attn: AttnImpl, opt: OptConfig, mode: Mode) {
    let label = |run: &str| format!("{run} ({mode:?})");
    let cold = profile_in(g, attn, opt, None, mode);
    let memo = Arc::new(CostMemo::new());
    let first = profile_in(g, attn, opt, Some(Arc::clone(&memo)), mode);
    let n = g.len() as u64;
    assert_eq!(memo.hits() + memo.misses(), n, "{}: one lookup per op", label("intra-run"));
    // `graph_of` walks every op twice, so at least the second walk hits.
    assert!(memo.hits() >= n / 2, "{}: repeated ops must hit", label("intra-run"));
    assert!(memo.misses() > 0, "{}: distinct ops must miss", label("intra-run"));
    assert_identical(&label("intra-run"), &cold, &first);
    for run in ["warm stage", "third stage"] {
        let (hits, misses) = (memo.hits(), memo.misses());
        let warm = profile_in(g, attn, opt, Some(Arc::clone(&memo)), mode);
        assert_eq!(memo.hits(), hits + n, "{}: one op hit per op", label(run));
        assert_eq!(memo.misses(), misses, "{}: no misses", label(run));
        assert_identical(&label(run), &cold, &warm);
    }
}

/// `g` with every path renamed: the same op sequence.
fn renamed(g: &Graph) -> Graph {
    let mut r = Graph::new();
    for n in g.nodes() {
        r.push(format!("renamed.{}", n.path), n.op.clone());
    }
    r
}

/// `g` with its last op replaced by a different one.
fn last_op_changed(g: &Graph) -> Graph {
    let last = g.len() - 1;
    let mut r = Graph::new();
    for (i, n) in g.nodes().iter().enumerate() {
        let mut op = n.op.clone();
        if i == last {
            op = match op {
                Op::Memcpy { bytes, amplification } => {
                    Op::Memcpy { bytes: bytes + 1, amplification }
                }
                _ => Op::Memcpy { bytes: 4096, amplification: 1.0 },
            };
        }
        r.push(n.path.clone(), op);
    }
    r
}

fn assert_identical(
    label: &str,
    (cold_t, cold_r): &(Timeline, Registry),
    (memo_t, memo_r): &(Timeline, Registry),
) {
    assert_eq!(cold_t.events().len(), memo_t.events().len(), "{label}: event count");
    for (a, b) in cold_t.events().iter().zip(memo_t.events()) {
        assert_eq!(a.index, b.index, "{label}: index of {}", a.path);
        assert_eq!(a.path, b.path, "{label}: path");
        assert_eq!(a.category, b.category, "{label}: category of {}", a.path);
        assert_eq!(a.time_s.to_bits(), b.time_s.to_bits(), "{label}: time of {}", a.path);
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits(), "{label}: energy of {}", a.path);
        assert_eq!(a.flops, b.flops, "{label}: flops of {}", a.path);
        assert_eq!(a.hbm_bytes, b.hbm_bytes, "{label}: bytes of {}", a.path);
        assert_eq!(a.kernels, b.kernels, "{label}: kernel records of {}", a.path);
        assert_eq!(a.attention, b.attention, "{label}: attention info of {}", a.path);
        assert_eq!(a.counters, b.counters, "{label}: counter deltas of {}", a.path);
    }
    // Registry totals, bucket for bucket and byte for byte.
    assert_eq!(cold_r.render_prometheus(), memo_r.render_prometheus(), "{label}: registry");
    // Span attribution (durations are wall time and legitimately differ).
    let cold_s = cold_r.finished_spans();
    let memo_s = memo_r.finished_spans();
    assert_eq!(cold_s.len(), memo_s.len(), "{label}: span count");
    for (a, b) in cold_s.iter().zip(&memo_s) {
        assert_eq!(a.path, b.path, "{label}: span path");
        assert_eq!(a.counter_deltas, b.counter_deltas, "{label}: span deltas of {}", a.path);
    }
}

/// A stage hit over a few hundred ops of mixed magnitudes still leaves
/// the kernel-time histogram's f64 sum bitwise equal to the cold run's,
/// which takes summing in launch order.
#[test]
fn large_stage_replay_is_bit_identical() {
    let seeds: Vec<u64> = (0..96u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let g = graph_of(&seeds);
    for (attn, opt_seed) in [(AttnImpl::Baseline, 0), (AttnImpl::Flash, 47)] {
        check_memo_paths(&g, attn, opt_from_seed(opt_seed), PLAIN);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cold, intra-run-memoized, and warm-memoized (whole-stage)
    /// profiling all agree, under any combination of optimization
    /// passes, at top level, under a parent span and with a hook.
    #[test]
    fn memoized_profiling_is_bit_identical(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..5),
        flash in 0usize..2,
        opt_seed in 0u64..48,
    ) {
        let attn = if flash == 1 { AttnImpl::Flash } else { AttnImpl::Baseline };
        let opt = opt_from_seed(opt_seed);
        let g = graph_of(&seeds);
        for mode in MODES {
            check_memo_paths(&g, attn, opt, mode);
        }
    }

    /// The stage tier keys on the op sequence alone: a graph with the same
    /// ops under other paths replays the stage with its own paths, and a
    /// graph differing in one late op never shares the entry.
    #[test]
    fn stage_tier_keys_on_ops_and_keeps_live_paths(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..5),
        flash in 0usize..2,
        opt_seed in 0u64..48,
    ) {
        let attn = if flash == 1 { AttnImpl::Flash } else { AttnImpl::Baseline };
        let opt = opt_from_seed(opt_seed);
        let g = graph_of(&seeds);
        let memo = Arc::new(CostMemo::new());
        let _ = profile(&g, attn, opt, Some(Arc::clone(&memo)));

        let r = renamed(&g);
        prop_assert_eq!(r.fingerprint(), g.fingerprint(), "paths do not enter the key");
        let (hits, misses) = (memo.hits(), memo.misses());
        let replayed = profile(&r, attn, opt, Some(Arc::clone(&memo)));
        prop_assert_eq!(memo.hits(), hits + g.len() as u64, "renamed graph replays");
        prop_assert_eq!(memo.misses(), misses);
        assert_identical("renamed", &profile(&r, attn, opt, None), &replayed);

        // Sharing `g`'s stage would replay `g`'s last op, whose counters
        // differ, so the comparison against a cold run catches it.
        let d = last_op_changed(&g);
        prop_assert_ne!(d.fingerprint(), g.fingerprint());
        let changed = profile(&d, attn, opt, Some(Arc::clone(&memo)));
        assert_identical("changed", &profile(&d, attn, opt, None), &changed);
        // And both stages now replay their own graphs.
        assert_identical("changed again", &profile(&d, attn, opt, None),
            &profile(&d, attn, opt, Some(Arc::clone(&memo))));
        assert_identical("original again", &profile(&g, attn, opt, None),
            &profile(&g, attn, opt, Some(Arc::clone(&memo))));
    }

    /// Energy conservation, bit for bit: every op's joules are exactly
    /// the in-order sum of its kernels' joules, the timeline total is
    /// exactly the in-order sum of the ops', every kernel draw sits in
    /// the device's [idle, TDP] envelope, and a warm memo replays the
    /// `gpu_energy_uj_total` counter to the same integer.
    #[test]
    fn per_kernel_joules_conserve_through_timeline_and_memo(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..5),
        flash in 0usize..2,
        opt_seed in 0u64..48,
    ) {
        let attn = if flash == 1 { AttnImpl::Flash } else { AttnImpl::Baseline };
        let opt = opt_from_seed(opt_seed);
        let spec = DeviceSpec::a100_80gb();
        let g = graph_of(&seeds);
        let (cold_t, cold_r) = profile(&g, attn, opt, None);

        let mut op_sum = 0.0f64;
        for e in cold_t.events() {
            let kernel_sum = e.kernels.iter().map(|k| k.energy_j).fold(0.0f64, |a, b| a + b);
            prop_assert_eq!(
                kernel_sum.to_bits(),
                e.energy_j.to_bits(),
                "op {} energy is not the exact sum of its kernels", &e.path
            );
            for k in e.kernels.iter() {
                prop_assert!(
                    k.draw_w >= spec.idle_w && k.draw_w <= spec.tdp_w,
                    "kernel {} draws {} W outside [{}, {}]",
                    &k.label, k.draw_w, spec.idle_w, spec.tdp_w
                );
                prop_assert!(k.energy_j >= 0.0, "negative joules on {}", &k.label);
            }
            op_sum += e.energy_j;
        }
        prop_assert_eq!(
            op_sum.to_bits(),
            cold_t.total_energy_j().to_bits(),
            "timeline total energy is not the exact sum of its ops"
        );

        // Warm replay must land the integrated-energy counter on the
        // same integer microjoule total the cold run produced.
        let counter = |r: &Registry| {
            r.counters_snapshot()
                .values()
                .iter()
                .find(|(name, _)| name == "gpu_energy_uj_total")
                .map(|(_, v)| *v)
        };
        let memo = Arc::new(CostMemo::new());
        let _ = profile(&g, attn, opt, Some(Arc::clone(&memo)));
        let (warm_t, warm_r) = profile(&g, attn, opt, Some(memo));
        prop_assert_eq!(
            cold_t.total_energy_j().to_bits(),
            warm_t.total_energy_j().to_bits(),
            "memo replay changed the integrated timeline energy"
        );
        prop_assert_eq!(counter(&cold_r), counter(&warm_r), "memo replay changed gpu_energy_uj_total");
    }
}
