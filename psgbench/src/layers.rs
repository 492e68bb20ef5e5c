//! Per-layer metrics, read from the spans and metrics a traced pass
//! recorded. Stage times use the pipeline's own exclusive attribution
//! (`obs::dissect` over [`pastis::Timings::STAGE_SPANS`]), so a stage
//! nested in another (the streamed layouts align inside `pastis.spgemm_b`)
//! counts only toward its own row.

use std::collections::BTreeMap;

use obs::dissect::{dissect, stage_agg, stage_agg_exclusive};
use obs::{span_forest, RankTrace, SpanNode};
use pastis::Timings;

use crate::pass::Pass;

/// How a per-layer metric is reduced over the traced passes of one run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A deterministic count: every traced pass must report exactly the
    /// same value, and on the default seed it must equal the recorded one.
    Count,
    /// A measured quantity (time, rate, byte peak): the median is reported.
    Measured,
}

/// Every per-layer metric: name, unit, reduction. Metrics of a layer the
/// workload does not run (form S on an exact workload, batches on an
/// unbudgeted one) read 0.
pub const PER_LAYER: [(&str, &str, Kind); 35] = [
    ("seqstore.parse_s", "s", Kind::Measured),
    ("seqstore.wait_s", "s", Kind::Measured),
    ("seqstore.exchange_bytes", "bytes", Kind::Count),
    ("sparse.form_a_s", "s", Kind::Measured),
    ("sparse.transpose_s", "s", Kind::Measured),
    ("sparse.spgemm_b_s", "s", Kind::Measured),
    ("sparse.a_s_s", "s", Kind::Measured),
    ("sparse.symmetrize_s", "s", Kind::Measured),
    ("sparse.flops", "count", Kind::Count),
    ("sparse.nnz_b", "count", Kind::Count),
    ("sparse.useful_frac", "ratio", Kind::Count),
    ("sparse.triples_peak_bytes", "bytes", Kind::Measured),
    ("sparse.accum_peak_bytes", "bytes", Kind::Measured),
    ("subkmer.form_s_s", "s", Kind::Measured),
    ("subkmer.nnz_s", "count", Kind::Count),
    ("subkmer.form_s_peak_bytes", "bytes", Kind::Measured),
    ("align.s", "s", Kind::Measured),
    ("align.pairs", "count", Kind::Count),
    ("align.edge_yield", "ratio", Kind::Count),
    ("align.xdrop_cells", "count", Kind::Count),
    ("align.xdrop_cells_per_s", "cells/s", Kind::Measured),
    ("align.sw_cells", "count", Kind::Count),
    ("align.sw_cells_per_s", "cells/s", Kind::Measured),
    ("align.worker_busy_frac", "ratio", Kind::Measured),
    ("pastis.batches", "count", Kind::Count),
    ("pastis.batch_s", "s", Kind::Measured),
    ("pastis.finality_s", "s", Kind::Measured),
    ("pastis.ooc_overhead_ratio", "ratio", Kind::Measured),
    ("ckpt.bytes", "bytes", Kind::Count),
    ("ckpt.files", "count", Kind::Count),
    ("pcomm.msgs", "count", Kind::Count),
    ("pcomm.bytes", "bytes", Kind::Count),
    ("pcomm.bcast_bytes", "bytes", Kind::Count),
    ("obs.trace_overhead_ratio", "ratio", Kind::Measured),
    ("obs.peak_stage_bytes", "bytes", Kind::Measured),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Layer metrics of one traced single-rank pass run with `threads`
/// alignment threads per rank.
pub fn single_rank(pass: &Pass, threads: usize) -> Values {
    let t = &pass.traces[0];
    let stage_names: Vec<&str> = Timings::STAGE_SPANS.iter().map(|&(s, _)| s).collect();
    let rows = dissect(std::slice::from_ref(t), &Timings::STAGE_SPANS, 0.0, 0.0);
    let row = |span: &str| rows.iter().find(|r| r.span == span).map_or(0.0, |r| r.secs);
    let secs = |name: &str| stage_agg(t, name, 0).secs;
    let hist_sum = |name: &str| t.metrics.hists.get(name).map_or(0, |h| h.sum) as f64;
    let gauge = |name: &str| t.metrics.gauges.get(name).copied().unwrap_or(0) as f64;
    let c = &pass.runs[0].counters;
    let candidates: u64 = pass.runs.iter().map(|r| r.counters.candidates_local).sum();

    let mut v = Values::new();
    v.insert("seqstore.parse_s", row("pastis.fasta"));
    v.insert("seqstore.wait_s", row("pastis.wait"));
    v.insert("sparse.form_a_s", row("pastis.form_a"));
    v.insert("sparse.transpose_s", row("pastis.tr_a"));
    v.insert("sparse.spgemm_b_s", row("pastis.spgemm_b"));
    v.insert("sparse.a_s_s", row("pastis.a_s"));
    v.insert("sparse.symmetrize_s", row("pastis.symmetricize"));
    v.insert("sparse.flops", hist_sum("spgemm.col_flops"));
    v.insert("sparse.nnz_b", c.nnz_b as f64);
    v.insert(
        "sparse.useful_frac",
        ratio(candidates as f64, c.nnz_b as f64),
    );
    v.insert(
        "sparse.triples_peak_bytes",
        gauge("mem.watermark.sparse.triples"),
    );
    v.insert(
        "sparse.accum_peak_bytes",
        gauge("mem.watermark.sparse.accum"),
    );
    v.insert("subkmer.form_s_s", row("pastis.form_s"));
    v.insert("subkmer.nnz_s", c.nnz_s as f64);
    v.insert(
        "subkmer.form_s_peak_bytes",
        gauge("mem.stage.pastis.form_s.total"),
    );

    // Alignment: the chunk spans plus the staged layout's candidate
    // extraction around them (the exclusive remainder of `pastis.align`).
    let align_s =
        row("align.overlap") + stage_agg_exclusive(t, "pastis.align", &stage_names, 0).secs;
    let worker_s = secs("align.worker");
    let (xdrop_cells, sw_cells) = (hist_sum("align.xdrop_cells"), hist_sum("align.dp_cells"));
    v.insert("align.s", align_s);
    v.insert("align.pairs", c.alignments_global as f64);
    v.insert(
        "align.edge_yield",
        ratio(c.edges_global as f64, c.alignments_global as f64),
    );
    v.insert("align.xdrop_cells", xdrop_cells);
    v.insert("align.xdrop_cells_per_s", ratio(xdrop_cells, worker_s));
    v.insert("align.sw_cells", sw_cells);
    v.insert("align.sw_cells_per_s", ratio(sw_cells, worker_s));
    v.insert(
        "align.worker_busy_frac",
        ratio(worker_s, threads as f64 * secs("align.batch")),
    );

    let batch_self = self_times(t, "pastis.batch");
    v.insert("pastis.batches", batch_self.len() as f64);
    v.insert("pastis.batch_s", median(&batch_self));
    v.insert("pastis.finality_s", secs("summa.finality"));

    let peak_stage = t
        .metrics
        .gauges
        .iter()
        .filter(|(k, _)| k.starts_with("mem.stage.") && k.ends_with(".total"))
        .map(|(_, &b)| b)
        .max()
        .unwrap_or(0);
    v.insert("obs.peak_stage_bytes", peak_stage as f64);
    v
}

/// Communication counts of a traced multi-rank pass, summed over ranks:
/// point-to-point messages and bytes, SUMMA panel-broadcast bytes, and the
/// bytes the sequence exchange delivered at its fence.
pub fn multi_rank_counts(pass: &Pass) -> Values {
    let ranks = &pass.traces[..pass.runs.len()];
    let sum = |f: &dyn Fn(&RankTrace) -> u64| ranks.iter().map(f).sum::<u64>() as f64;
    let recv = |t: &RankTrace, name: &str| stage_agg(t, name, 0).counters.bytes_recv;
    let msg_hist = |t: &RankTrace| {
        t.metrics
            .hists
            .get("pcomm.msg_bytes")
            .cloned()
            .unwrap_or_default()
    };
    let mut v = Values::new();
    v.insert("pcomm.msgs", sum(&|t| msg_hist(t).count));
    v.insert("pcomm.bytes", sum(&|t| msg_hist(t).sum));
    v.insert(
        "pcomm.bcast_bytes",
        sum(&|t| recv(t, "summa.bcast_a") + recv(t, "summa.bcast_b")),
    );
    v.insert("seqstore.exchange_bytes", sum(&|t| recv(t, "pastis.wait")));
    v
}

/// Self time (duration minus the children's durations) of every span
/// named `name`, in seconds.
fn self_times(t: &RankTrace, name: &str) -> Vec<f64> {
    fn walk(nodes: &[SpanNode], name: &str, out: &mut Vec<f64>) {
        for n in nodes {
            if n.event.name == name {
                let children: u64 = n.children.iter().map(|c| c.event.dur_ns).sum();
                out.push(n.event.dur_ns.saturating_sub(children) as f64 * 1e-9);
            } else {
                walk(&n.children, name, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(&span_forest(&t.events), name, &mut out);
    out
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of `xs` (mean of the middle two for an even count), 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}
