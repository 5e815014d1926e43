//! Timelines and operator breakdowns.

use mmg_graph::{AttnKind, OpCategory};

use crate::OpEvent;

/// Time per operator category — one stacked bar of Fig. 6.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryBreakdown {
    rows: Vec<(OpCategory, f64)>,
    total_s: f64,
}

impl CategoryBreakdown {
    /// `(category, seconds)` rows, descending by time, zero rows omitted.
    #[must_use]
    pub fn rows(&self) -> &[(OpCategory, f64)] {
        &self.rows
    }

    /// Total seconds across categories.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.total_s
    }

    /// Seconds spent in one category.
    #[must_use]
    pub fn seconds(&self, cat: OpCategory) -> f64 {
        self.rows.iter().find(|(c, _)| *c == cat).map_or(0.0, |(_, s)| *s)
    }

    /// Fraction of total time in one category (0 when the total is 0).
    #[must_use]
    pub fn fraction(&self, cat: OpCategory) -> f64 {
        if self.total_s == 0.0 {
            0.0
        } else {
            self.seconds(cat) / self.total_s
        }
    }

    /// Scales all rows by a constant (used to weight pipeline stages by
    /// their repeat count).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> CategoryBreakdown {
        CategoryBreakdown {
            rows: self.rows.iter().map(|&(c, s)| (c, s * factor)).collect(),
            total_s: self.total_s * factor,
        }
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &CategoryBreakdown) {
        for &(cat, s) in &other.rows {
            if let Some(slot) = self.rows.iter_mut().find(|(c, _)| *c == cat) {
                slot.1 += s;
            } else {
                self.rows.push((cat, s));
            }
        }
        self.total_s += other.total_s;
        self.rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    }

    /// An empty breakdown.
    #[must_use]
    pub fn empty() -> CategoryBreakdown {
        CategoryBreakdown { rows: Vec::new(), total_s: 0.0 }
    }
}

/// The ordered events of one profiled execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    events: Vec<OpEvent>,
}

impl Timeline {
    /// Wraps an event list.
    #[must_use]
    pub fn new(events: Vec<OpEvent>) -> Self {
        Timeline { events }
    }

    /// The events in execution order.
    #[must_use]
    pub fn events(&self) -> &[OpEvent] {
        &self.events
    }

    /// Total simulated wall time in seconds.
    #[must_use]
    pub fn total_time_s(&self) -> f64 {
        self.events.iter().map(|e| e.time_s).sum()
    }

    /// Total modeled energy in joules. Summed in event order, exactly
    /// like [`Timeline::total_time_s`], so the per-kernel → per-op →
    /// timeline folds agree bitwise.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.events.iter().map(|e| e.energy_j).sum()
    }

    /// Mean board draw over the timeline, watts (0 for an empty one).
    #[must_use]
    pub fn mean_power_w(&self) -> f64 {
        let t = self.total_time_s();
        if t == 0.0 {
            0.0
        } else {
            self.total_energy_j() / t
        }
    }

    /// Joules grouped by operator category, descending — the energy
    /// analogue of [`Timeline::breakdown`].
    #[must_use]
    pub fn energy_by_category(&self) -> Vec<(OpCategory, f64)> {
        let mut rows: Vec<(OpCategory, f64)> = Vec::new();
        for e in &self.events {
            if let Some(slot) = rows.iter_mut().find(|(c, _)| *c == e.category) {
                slot.1 += e.energy_j;
            } else {
                rows.push((e.category, e.energy_j));
            }
        }
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }

    /// Total FLOPs.
    #[must_use]
    pub fn total_flops(&self) -> u64 {
        self.events.iter().map(|e| e.flops).sum()
    }

    /// Time grouped by category, descending.
    #[must_use]
    pub fn breakdown(&self) -> CategoryBreakdown {
        let mut rows: Vec<(OpCategory, f64)> = Vec::new();
        for e in &self.events {
            if let Some(slot) = rows.iter_mut().find(|(c, _)| *c == e.category) {
                slot.1 += e.time_s;
            } else {
                rows.push((e.category, e.time_s));
            }
        }
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        CategoryBreakdown { rows, total_s: self.total_time_s() }
    }

    /// Seconds spent in attention calls of one kind — the Fig. 11
    /// spatial/temporal split.
    #[must_use]
    pub fn attention_time_by_kind(&self, kind: AttnKind) -> f64 {
        self.events
            .iter()
            .filter(|e| e.attention.is_some_and(|a| a.kind == kind))
            .map(|e| e.time_s)
            .sum()
    }

    /// FLOPs in attention calls of one kind.
    #[must_use]
    pub fn attention_flops_by_kind(&self, kind: AttnKind) -> u64 {
        self.events
            .iter()
            .filter(|e| e.attention.is_some_and(|a| a.kind == kind))
            .map(|e| e.flops)
            .sum()
    }

    /// Appends another timeline's events (re-indexing them).
    pub fn extend(&mut self, other: &Timeline) {
        let base = self.events.len();
        for (i, e) in other.events.iter().enumerate() {
            let mut e = e.clone();
            e.index = base + i;
            self.events.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttnCallInfo;

    fn ev(cat: OpCategory, t: f64, attn: Option<AttnKind>) -> OpEvent {
        OpEvent {
            index: 0,
            path: "p".into(),
            category: cat,
            time_s: t,
            flops: 10,
            hbm_bytes: 20,
            energy_j: t * 300.0,
            kernels: std::sync::Arc::new(vec![]),
            counters: std::sync::Arc::new(vec![]),
            attention: attn.map(|kind| AttnCallInfo {
                kind,
                seq_q: 4,
                seq_kv: 4,
                batch: 1,
                heads: 1,
            }),
        }
    }

    #[test]
    fn breakdown_sums_and_sorts() {
        let t = Timeline::new(vec![
            ev(OpCategory::Conv, 3.0, None),
            ev(OpCategory::Attention, 1.0, Some(AttnKind::SpatialSelf)),
            ev(OpCategory::Conv, 2.0, None),
        ]);
        let b = t.breakdown();
        assert_eq!(b.rows()[0], (OpCategory::Conv, 5.0));
        assert!((b.fraction(OpCategory::Attention) - 1.0 / 6.0).abs() < 1e-12);
        assert_eq!(b.total_s(), 6.0);
    }

    #[test]
    fn attention_kind_split() {
        let t = Timeline::new(vec![
            ev(OpCategory::Attention, 1.0, Some(AttnKind::SpatialSelf)),
            ev(OpCategory::Attention, 2.0, Some(AttnKind::Temporal)),
            ev(OpCategory::Attention, 4.0, Some(AttnKind::Temporal)),
        ]);
        assert_eq!(t.attention_time_by_kind(AttnKind::SpatialSelf), 1.0);
        assert_eq!(t.attention_time_by_kind(AttnKind::Temporal), 6.0);
        assert_eq!(t.attention_flops_by_kind(AttnKind::Temporal), 20);
    }

    #[test]
    fn merge_and_scale() {
        let t = Timeline::new(vec![ev(OpCategory::Linear, 2.0, None)]);
        let mut b = t.breakdown();
        b.merge(&t.breakdown().scaled(3.0));
        assert_eq!(b.seconds(OpCategory::Linear), 8.0);
        assert_eq!(b.total_s(), 8.0);
    }

    #[test]
    fn extend_reindexes() {
        let mut a = Timeline::new(vec![ev(OpCategory::Linear, 1.0, None)]);
        let b = Timeline::new(vec![ev(OpCategory::Conv, 1.0, None)]);
        a.extend(&b);
        assert_eq!(a.events().len(), 2);
        assert_eq!(a.events()[1].index, 1);
    }

    #[test]
    fn empty_timeline_is_safe() {
        let t = Timeline::default();
        assert_eq!(t.total_time_s(), 0.0);
        assert_eq!(t.breakdown().fraction(OpCategory::Conv), 0.0);
        assert_eq!(t.total_energy_j(), 0.0);
        assert_eq!(t.mean_power_w(), 0.0);
    }

    #[test]
    fn energy_totals_and_category_rows() {
        let t = Timeline::new(vec![
            ev(OpCategory::Conv, 3.0, None),
            ev(OpCategory::Attention, 1.0, Some(AttnKind::SpatialSelf)),
        ]);
        // ev() models a flat 300 W draw.
        assert!((t.total_energy_j() - 4.0 * 300.0).abs() < 1e-9);
        assert!((t.mean_power_w() - 300.0).abs() < 1e-9);
        let rows = t.energy_by_category();
        assert_eq!(rows[0].0, OpCategory::Conv);
        assert!((rows[0].1 - 900.0).abs() < 1e-9);
    }
}
