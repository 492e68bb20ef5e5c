//! One pipeline pass — FASTA bytes in, sorted global edge list and its
//! digest out — plus the process readings the timed metrics need.

use std::path::Path;

use obs::Stopwatch;
use pastis::{run_pipeline, PastisParams, PastisRun};
use pcomm::World;

/// A global similarity-graph edge `(gid_low, gid_high, weight)`.
pub type Edge = (u64, u64, f64);

/// What one pass produced and cost.
pub struct Pass {
    /// Wall seconds from FASTA bytes to the digested, sorted edge list.
    pub secs: f64,
    /// Process CPU seconds (user + sys, every thread) over the same span.
    pub cpu_s: f64,
    /// FNV-1a digest of the sorted edge list.
    pub digest: u64,
    /// Per-rank results (pipeline counters and the pipeline's own trace).
    pub runs: Vec<PastisRun>,
    /// Per-rank traces recorded by the benchmark's own recorder (traced
    /// passes only; empty otherwise).
    pub traces: Vec<obs::RankTrace>,
}

/// Digest of a sorted edge list: FNV-1a over each edge's two ids and the
/// weight's bit pattern, little-endian.
pub fn edge_digest(edges: &[Edge]) -> u64 {
    let mut bytes = Vec::with_capacity(edges.len() * 24);
    for &(i, j, w) in edges {
        bytes.extend_from_slice(&i.to_le_bytes());
        bytes.extend_from_slice(&j.to_le_bytes());
        bytes.extend_from_slice(&w.to_bits().to_le_bytes());
    }
    pastis::ckpt::fnv1a(&bytes)
}

/// Run the pipeline on `p` ranks and return the sorted, digested edges.
///
/// `ckpt_dir`, when given, is emptied (or created) before the clock
/// starts and handed to the pipeline as its checkpoint directory, so the
/// pass computes every batch instead of resuming from an earlier pass.
///
/// With `traced`, allocation tracking is on for the pass (the pipeline
/// then records per-stage peak bytes), every rank records into a recorder
/// the benchmark installs, next to the benchmark's `bench.run_pipeline` span around the
/// call, and the main thread records
/// the benchmark's own spans around the checkpoint-directory reset, the
/// world launch, the edge gather and the sort + digest; that trace comes
/// last in [`Pass::traces`], with rank id `p`.
pub fn run(
    fasta: &[u8],
    params: &PastisParams,
    p: usize,
    traced: bool,
    ckpt_dir: Option<&Path>,
) -> std::io::Result<Pass> {
    let main_rec = traced.then(|| obs::Recorder::install(0));
    obs::alloc::set_tracking(traced);
    let mut params = params.clone();
    if let Some(dir) = ckpt_dir {
        let _s = obs::span!("bench.ckpt_dir");
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        std::fs::create_dir_all(dir)?;
        params.ckpt_dir = Some(dir.to_path_buf());
    }
    let params = &params;
    let t0 = Stopwatch::start();
    let c0 = cpu_seconds();
    let results = {
        let _s = obs::span!("bench.world_launch");
        World::run(p, |comm| {
            let rec = traced.then(|| obs::Recorder::install(comm.rank()));
            // `run_pipeline` rebuilds its stage summary from a span forest
            // rooted at `pastis.run`, so it must run at span depth 0: the
            // benchmark's span around the call is recorded after it
            // returns, as a sibling root.
            let start_ns = obs::epoch().map_or(0, |e| e.elapsed().as_nanos() as u64);
            let t = Stopwatch::start();
            let run = run_pipeline(&comm, fasta, params);
            let dur_ns = t.elapsed_ns();
            obs::emit_span(
                "bench.run_pipeline",
                0,
                start_ns,
                dur_ns,
                obs::CounterSet::default(),
                None,
            );
            (run, rec.map(|r| r.finish()))
        })
    };
    let mut edges: Vec<Edge> = {
        let _s = obs::span!("bench.gather");
        results
            .iter()
            .flat_map(|(r, _)| r.edges.iter().copied())
            .collect()
    };
    let digest = {
        let _s = obs::span!("bench.sort_digest");
        edges.sort_unstable_by_key(|&(i, j, _)| (i, j));
        edge_digest(std::hint::black_box(&edges))
    };
    let secs = t0.elapsed_secs();
    let cpu_s = cpu_seconds() - c0;
    obs::alloc::set_tracking(false);
    let (runs, rank_traces): (Vec<PastisRun>, Vec<Option<obs::RankTrace>>) =
        results.into_iter().unzip();
    let mut traces: Vec<obs::RankTrace> = rank_traces.into_iter().flatten().collect();
    if let Some(rec) = main_rec {
        let mut t = rec.finish();
        t.rank = p;
        traces.push(t);
    }
    Ok(Pass {
        secs,
        cpu_s,
        digest,
        runs,
        traces,
    })
}

/// Check that a budgeted pass computed every planned batch instead of
/// resuming any: the manifest it wrote lists every batch as complete, the
/// trace holds one `pastis.batch` span per planned batch, and each batch
/// ran its own SUMMA stream (one `summa.finality` span per batch; a
/// restored batch runs none). Returns the batch count.
pub fn check_batches_computed(dir: &Path, run: &PastisRun) -> Result<usize, String> {
    let m = pastis::ckpt::load_manifest(dir)
        .ok_or_else(|| format!("no checkpoint manifest in {}", dir.display()))?;
    let count = |name: &str| run.trace.events.iter().filter(|e| e.name == name).count();
    let (batches, streams) = (count("pastis.batch"), count("summa.finality"));
    if m.completed.len() != m.n_batches || batches != m.n_batches || streams != m.n_batches {
        return Err(format!(
            "planned {} batches; manifest lists {} complete, trace has {batches} batch spans \
             and {streams} computed streams",
            m.n_batches,
            m.completed.len()
        ));
    }
    Ok(batches)
}

/// Bytes and file count of everything under `dir`.
pub fn dir_usage(dir: &Path) -> std::io::Result<(u64, u64)> {
    let (mut bytes, mut files) = (0u64, 0u64);
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            let (b, f) = dir_usage(&entry.path())?;
            bytes += b;
            files += f;
        } else {
            bytes += meta.len();
            files += 1;
        }
    }
    Ok((bytes, files))
}

/// Process CPU seconds, user + system, summed over every thread the
/// process has run (live or exited), from `/proc/self/stat` fields 14–15.
/// Linux reports them in `USER_HZ` ticks, which is 100 on every Linux ABI.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields after it are
    // counted from the closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric tick field") as f64 };
    // `rest` starts at field 3, so utime (14) and stime (15) sit at 11, 12.
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .expect("VmHWM line in /proc/self/status")
}
