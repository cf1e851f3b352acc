//! The twelve Table-1 workloads, genuinely executable.
//!
//! Each [`WorkloadKind`] carries the paper's Table-1 metadata (name,
//! vCPUs, description) and a real Rust implementation in [`execute`].
//! Kernels are deterministic given the request seed, return a checksum so
//! tests can verify end-to-end integrity, and operate against the
//! [`EphemeralFs`] scratch volume exactly like their Python originals use
//! `/tmp`.
//!
//! In the FaaS simulator the *billed duration* of a workload comes from
//! [`crate::perf_model`] (base runtime × CPU factor × contention ×
//! noise); the kernels exist so the library is a real implementation, for
//! unit/integration testing, and for Table 1's checksum and work-unit
//! columns (`table1_workloads`).

use crate::base64;
use crate::bitmap::Bitmap;
use crate::fs::EphemeralFs;
use crate::graph::Graph;
use crate::json::JsonValue;
use crate::logreg::{self, TrainConfig};
use crate::lzss;
use crate::matrix::{dot, math_service_pass, Matrix};
use crate::pagerank::{page_rank, PageRankConfig};
use crate::sha1::{sha1, Sha1};
use serde::{Deserialize, Serialize};
use sky_sim::SimRng;
use std::fmt;

/// Broad resource profile of a workload (drives which CPUs are fast for
/// it — see Figure 9's disk-bound exceptions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadCategory {
    /// Dominated by integer/float compute.
    Compute,
    /// Dominated by scratch-volume I/O.
    DiskIo,
    /// Mixed compute and I/O.
    Mixed,
}

/// One of the paper's twelve benchmark functions (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Generates a graph and calculates its minimum spanning tree.
    GraphMst,
    /// Generates a graph and performs a breadth-first search.
    GraphBfs,
    /// Generates a graph and computes the PageRank of each node.
    PageRank,
    /// Generates text, repeatedly writes it to disk, and deletes it.
    DiskWriter,
    /// Writes a large text file then runs `wc`/`base64`/`sha1sum`/`cat`
    /// equivalents on it in a loop.
    DiskWriteProcess,
    /// Generates files and compresses them into archives.
    Zipper,
    /// Generates a random bitmap image and scales it to different sizes.
    Thumbnailer,
    /// Takes an input string and produces its SHA-1 hash.
    Sha1Hash,
    /// Recursively generates a large JSON object and flattens it.
    JsonFlattener,
    /// Builds large arrays and repeatedly performs arithmetic on them.
    MathService,
    /// Generates large matrices and executes multiply/dot in loops.
    MatrixMultiply,
    /// Logistic-regression SGD across two threads.
    LogisticRegression,
}

impl WorkloadKind {
    /// All twelve workloads in Table-1 order.
    pub const ALL: [WorkloadKind; 12] = [
        WorkloadKind::GraphMst,
        WorkloadKind::GraphBfs,
        WorkloadKind::PageRank,
        WorkloadKind::DiskWriter,
        WorkloadKind::DiskWriteProcess,
        WorkloadKind::Zipper,
        WorkloadKind::Thumbnailer,
        WorkloadKind::Sha1Hash,
        WorkloadKind::JsonFlattener,
        WorkloadKind::MathService,
        WorkloadKind::MatrixMultiply,
        WorkloadKind::LogisticRegression,
    ];

    /// Snake-case function name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::GraphMst => "graph_mst",
            WorkloadKind::GraphBfs => "graph_bfs",
            WorkloadKind::PageRank => "page_rank",
            WorkloadKind::DiskWriter => "disk_writer",
            WorkloadKind::DiskWriteProcess => "disk_write_and_process",
            WorkloadKind::Zipper => "zipper",
            WorkloadKind::Thumbnailer => "thumbnailer",
            WorkloadKind::Sha1Hash => "sha1_hash",
            WorkloadKind::JsonFlattener => "json_flattener",
            WorkloadKind::MathService => "math_service",
            WorkloadKind::MatrixMultiply => "matrix_multiply",
            WorkloadKind::LogisticRegression => "logistic_regression",
        }
    }

    /// Parse the snake-case name back to a kind.
    pub fn from_name(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// Parallelism the workload can exploit (Table 1's vCPUs column).
    pub fn vcpus(self) -> f64 {
        match self {
            WorkloadKind::PageRank => 1.2,
            WorkloadKind::Zipper
            | WorkloadKind::MathService
            | WorkloadKind::MatrixMultiply
            | WorkloadKind::LogisticRegression => 2.0,
            _ => 1.0,
        }
    }

    /// Table-1 description.
    pub fn description(self) -> &'static str {
        match self {
            WorkloadKind::GraphMst => {
                "Generates a graph and calculates its minimum spanning tree."
            }
            WorkloadKind::GraphBfs => {
                "Generates a graph and performs a breadth-first search."
            }
            WorkloadKind::PageRank => {
                "Generates a graph and computes the PageRank of each node."
            }
            WorkloadKind::DiskWriter => {
                "Generates text, repeatedly writes it to disk, and deletes it."
            }
            WorkloadKind::DiskWriteProcess => {
                "Writes a large text file and then runs several shell commands (wc, base64, sha1sum, cat) on it in a loop."
            }
            WorkloadKind::Zipper => {
                "Generates files and compresses them into ZIP archives."
            }
            WorkloadKind::Thumbnailer => {
                "Generates a random bitmap image and scales it to different sizes."
            }
            WorkloadKind::Sha1Hash => {
                "Takes an input string and produces its SHA-1 hash."
            }
            WorkloadKind::JsonFlattener => {
                "Recursively generates a large JSON object and flattens it into key-value pairs."
            }
            WorkloadKind::MathService => {
                "Builds large arrays and repeatedly performs arithmetic operations on them."
            }
            WorkloadKind::MatrixMultiply => {
                "Generates large matrices and executes multiply and dot operations in loops."
            }
            WorkloadKind::LogisticRegression => {
                "Runs logistic-regression SGD across two threads on a generated dataset for the requested epochs."
            }
        }
    }

    /// Resource category (drives the per-CPU factor table's exceptions).
    pub fn category(self) -> WorkloadCategory {
        match self {
            WorkloadKind::DiskWriter => WorkloadCategory::DiskIo,
            WorkloadKind::DiskWriteProcess | WorkloadKind::Zipper => WorkloadCategory::Mixed,
            _ => WorkloadCategory::Compute,
        }
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A request to run a workload kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadRequest {
    /// Which workload.
    pub kind: WorkloadKind,
    /// Problem-size multiplier; 1 is the small test scale. Kernels size
    /// their data structures linearly (or near-linearly) in `scale`.
    pub scale: u32,
    /// Seed for deterministic input generation.
    pub seed: u64,
}

impl WorkloadRequest {
    /// A scale-1 request.
    pub fn new(kind: WorkloadKind, seed: u64) -> Self {
        WorkloadRequest {
            kind,
            scale: 1,
            seed,
        }
    }

    /// Override the problem-size multiplier.
    pub fn with_scale(mut self, scale: u32) -> Self {
        assert!(scale >= 1, "scale must be at least 1");
        self.scale = scale;
        self
    }
}

/// Result of a kernel execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Content checksum — stable for a given (kind, scale, seed).
    pub checksum: u64,
    /// Abstract work units completed (bytes processed, edges visited, …).
    pub work_units: u64,
}

/// Generate deterministic pseudo-text (the "generates text" steps of the
/// disk workloads).
fn generate_text(bytes: usize, rng: &mut SimRng) -> Vec<u8> {
    const WORDS: [&str; 12] = [
        "serverless",
        "function",
        "instance",
        "lambda",
        "profile",
        "zone",
        "region",
        "cpu",
        "heterogeneity",
        "sky",
        "routing",
        "sample",
    ];
    let mut out = Vec::with_capacity(bytes + 16);
    while out.len() < bytes {
        let w = WORDS[rng.next_below(WORDS.len() as u64) as usize];
        out.extend_from_slice(w.as_bytes());
        out.push(if rng.chance(0.12) { b'\n' } else { b' ' });
    }
    out.truncate(bytes);
    out
}

/// `wc`-equivalent: (lines, words, bytes).
fn word_count(data: &[u8]) -> (u64, u64, u64) {
    let lines = data.iter().filter(|&&b| b == b'\n').count() as u64;
    let mut words = 0u64;
    let mut in_word = false;
    for &b in data {
        let ws = b == b' ' || b == b'\n' || b == b'\t';
        if !ws && !in_word {
            words += 1;
        }
        in_word = !ws;
    }
    (lines, words, data.len() as u64)
}

/// Execute a workload kernel against the given scratch volume.
///
/// Deterministic: the same request always produces the same
/// [`WorkloadResult`], regardless of platform or thread scheduling.
///
/// # Panics
///
/// Panics if the scratch volume is too small for the requested scale
/// (the default 512 MB volume fits every scale the workspace uses).
pub fn execute(req: &WorkloadRequest, fs: &mut EphemeralFs) -> WorkloadResult {
    let mut rng = SimRng::seed_from(req.seed).derive(req.kind.name());
    let s = req.scale as usize;
    match req.kind {
        WorkloadKind::GraphMst => {
            let g = Graph::generate(400 * s, 6, &mut rng);
            let (weight, tree) = g.minimum_spanning_tree();
            WorkloadResult {
                checksum: weight ^ (tree.len() as u64).rotate_left(32),
                work_units: g.n_edges() as u64,
            }
        }
        WorkloadKind::GraphBfs => {
            let g = Graph::generate(600 * s, 5, &mut rng);
            let dist = g.bfs(0);
            let sum: u64 = dist.iter().map(|&d| d as u64).sum();
            let max = *dist.iter().max().unwrap_or(&0) as u64;
            WorkloadResult {
                checksum: sum ^ max.rotate_left(48),
                work_units: g.n_edges() as u64,
            }
        }
        WorkloadKind::PageRank => {
            let g = Graph::generate(300 * s, 6, &mut rng);
            let r = page_rank(&g, &PageRankConfig::default());
            // Quantize scores for a stable integer checksum.
            let q: u64 = r
                .scores
                .iter()
                .map(|&x| (x * 1e12) as u64)
                .fold(0u64, |acc, v| acc.rotate_left(1) ^ v);
            WorkloadResult {
                checksum: q ^ (r.iterations as u64),
                work_units: (g.n_edges() * r.iterations) as u64,
            }
        }
        WorkloadKind::DiskWriter => {
            let text = generate_text(64 * 1024 * s, &mut rng);
            let mut checksum = 0u64;
            let rounds = 20;
            for i in 0..rounds {
                let path = format!("chunk_{i}.txt");
                fs.write(&path, &text).expect("scratch volume large enough");
                // Rotate per round so identical digests do not cancel.
                checksum =
                    checksum.rotate_left(13) ^ sha1(fs.read(&path).expect("just written")).as_u64();
                fs.delete(&path).expect("just written");
            }
            WorkloadResult {
                checksum,
                work_units: (text.len() * rounds) as u64,
            }
        }
        WorkloadKind::DiskWriteProcess => {
            let text = generate_text(128 * 1024 * s, &mut rng);
            fs.write("big.txt", &text)
                .expect("scratch volume large enough");
            let mut checksum = 0u64;
            let rounds = 5;
            for _ in 0..rounds {
                let data = fs.read("big.txt").expect("written above").to_vec(); // cat
                let (l, w, b) = word_count(&data); // wc
                let b64 = base64::encode(&data[..data.len().min(32 * 1024)]); // base64
                let digest = sha1(&data); // sha1sum
                checksum ^= l
                    .rotate_left(1)
                    .wrapping_add(w.rotate_left(2))
                    .wrapping_add(b.rotate_left(3))
                    ^ digest.as_u64()
                    ^ (b64.len() as u64);
            }
            fs.delete("big.txt").expect("written above");
            WorkloadResult {
                checksum,
                work_units: (text.len() * rounds) as u64,
            }
        }
        WorkloadKind::Zipper => {
            // Generate files and pack them into a simple archive:
            // [name_len u16][name][orig u32][comp u32][data] per entry.
            let n_files = 8;
            let mut archive: Vec<u8> = Vec::new();
            let mut original_total = 0u64;
            for i in 0..n_files {
                let content = generate_text(24 * 1024 * s, &mut rng);
                original_total += content.len() as u64;
                let name = format!("file_{i}.txt");
                fs.write(&name, &content)
                    .expect("scratch volume large enough");
                let compressed = lzss::compress(fs.read(&name).expect("just written"));
                archive.extend_from_slice(&(name.len() as u16).to_le_bytes());
                archive.extend_from_slice(name.as_bytes());
                archive.extend_from_slice(&(content.len() as u32).to_le_bytes());
                archive.extend_from_slice(&(compressed.len() as u32).to_le_bytes());
                archive.extend_from_slice(&compressed);
                fs.delete(&name).expect("just written");
            }
            fs.write("archive.lz", &archive)
                .expect("scratch volume large enough");
            let checksum = sha1(&archive).as_u64() ^ original_total;
            fs.delete("archive.lz").expect("just written");
            WorkloadResult {
                checksum,
                work_units: original_total,
            }
        }
        WorkloadKind::Thumbnailer => {
            let dim = 96 * (s as f64).sqrt().ceil() as usize;
            let img = Bitmap::generate(dim, dim, &mut rng);
            let mut checksum = 0u64;
            for (w, h) in [
                (dim / 2, dim / 2),
                (dim / 4, dim / 4),
                (dim / 8, dim / 8),
                (32, 24),
            ] {
                let scaled = img.scale(w.max(1), h.max(1));
                checksum = checksum.rotate_left(8) ^ sha1(scaled.pixels()).as_u64();
            }
            WorkloadResult {
                checksum,
                work_units: (dim * dim * 4) as u64,
            }
        }
        WorkloadKind::Sha1Hash => {
            let input = generate_text(4 * 1024, &mut rng);
            let rounds = 2_000 * s;
            let mut h = Sha1::new();
            h.update(&input);
            let mut digest = h.finalize();
            for _ in 1..rounds {
                let mut next = Sha1::new();
                next.update(&digest.0);
                digest = next.finalize();
            }
            WorkloadResult {
                checksum: digest.as_u64(),
                work_units: rounds as u64 * 20,
            }
        }
        WorkloadKind::JsonFlattener => {
            let doc = JsonValue::generate(4_000 * s, 10, &mut rng);
            let flat = doc.flatten();
            let mut checksum = (flat.len() as u64).rotate_left(32);
            for (path, value) in &flat {
                checksum ^= sha1(path.as_bytes()).as_u64().rotate_left(7) ^ (value.len() as u64);
            }
            WorkloadResult {
                checksum,
                work_units: doc.node_count() as u64,
            }
        }
        WorkloadKind::MathService => {
            let mut values: Vec<f64> = (0..40_000 * s).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            let c = math_service_pass(&mut values, 12);
            WorkloadResult {
                checksum: (c * 1e9) as i64 as u64,
                work_units: (values.len() * 12) as u64,
            }
        }
        WorkloadKind::MatrixMultiply => {
            let n = 48 * s;
            let a = Matrix::random(n, n, &mut rng);
            let b = Matrix::random(n, n, &mut rng);
            let c = a.multiply(&b);
            let row0: Vec<f64> = (0..n).map(|j| c.get(0, j)).collect();
            let col0: Vec<f64> = (0..n).map(|i| c.get(i, 0)).collect();
            let d = dot(&row0, &col0);
            WorkloadResult {
                checksum: ((c.frobenius_norm() + d) * 1e6) as i64 as u64,
                work_units: (n * n * n) as u64,
            }
        }
        WorkloadKind::LogisticRegression => {
            let data = logreg::Dataset::generate(600 * s, 10, &mut rng);
            let model = logreg::train(
                &data,
                &TrainConfig {
                    epochs: 12,
                    learning_rate: 0.4,
                    threads: 2,
                },
            );
            let wsum: f64 = model.weights.iter().map(|w| w.abs()).sum();
            let acc = model.accuracy(&data);
            WorkloadResult {
                checksum: ((wsum * 1e9) as i64 as u64) ^ ((acc * 1e6) as u64).rotate_left(40),
                work_units: (data.n_samples() * 12) as u64,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_metadata_complete() {
        assert_eq!(WorkloadKind::ALL.len(), 12);
        for kind in WorkloadKind::ALL {
            assert!(!kind.name().is_empty());
            assert!(!kind.description().is_empty());
            assert!(kind.vcpus() >= 1.0);
            assert_eq!(WorkloadKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(WorkloadKind::from_name("nonexistent"), None);
        assert_eq!(WorkloadKind::PageRank.vcpus(), 1.2);
        assert_eq!(WorkloadKind::LogisticRegression.vcpus(), 2.0);
    }

    #[test]
    fn every_kernel_runs_and_is_deterministic() {
        for kind in WorkloadKind::ALL {
            let req = WorkloadRequest::new(kind, 1234);
            let mut fs1 = EphemeralFs::new();
            let mut fs2 = EphemeralFs::new();
            let r1 = execute(&req, &mut fs1);
            let r2 = execute(&req, &mut fs2);
            assert_eq!(r1, r2, "{kind} not deterministic");
            assert!(r1.work_units > 0, "{kind} reported no work");
        }
    }

    #[test]
    fn different_seeds_change_checksums() {
        for kind in WorkloadKind::ALL {
            let mut fs = EphemeralFs::new();
            let a = execute(&WorkloadRequest::new(kind, 1), &mut fs);
            let b = execute(&WorkloadRequest::new(kind, 2), &mut fs);
            assert_ne!(a.checksum, b.checksum, "{kind} seed-insensitive");
        }
    }

    #[test]
    fn scale_increases_work() {
        for kind in [
            WorkloadKind::GraphMst,
            WorkloadKind::Zipper,
            WorkloadKind::MathService,
            WorkloadKind::MatrixMultiply,
        ] {
            let mut fs = EphemeralFs::new();
            let small = execute(&WorkloadRequest::new(kind, 5), &mut fs);
            let large = execute(&WorkloadRequest::new(kind, 5).with_scale(2), &mut fs);
            assert!(
                large.work_units > small.work_units,
                "{kind}: {} !> {}",
                large.work_units,
                small.work_units
            );
        }
    }

    #[test]
    fn disk_workloads_clean_up_scratch() {
        for kind in [
            WorkloadKind::DiskWriter,
            WorkloadKind::DiskWriteProcess,
            WorkloadKind::Zipper,
        ] {
            let mut fs = EphemeralFs::new();
            let _ = execute(&WorkloadRequest::new(kind, 9), &mut fs);
            assert_eq!(fs.file_count(), 0, "{kind} left files behind");
            assert!(fs.bytes_written() > 0, "{kind} did no disk I/O");
        }
    }

    #[test]
    fn compute_workloads_do_no_disk_io() {
        for kind in [
            WorkloadKind::MathService,
            WorkloadKind::Sha1Hash,
            WorkloadKind::PageRank,
        ] {
            let mut fs = EphemeralFs::new();
            let _ = execute(&WorkloadRequest::new(kind, 3), &mut fs);
            assert_eq!(fs.bytes_written(), 0, "{kind} unexpectedly wrote to disk");
        }
    }

    #[test]
    fn word_count_matches_wc_semantics() {
        let (l, w, b) = word_count(b"one two\nthree  four\n");
        assert_eq!((l, w, b), (2, 4, 20));
        assert_eq!(word_count(b""), (0, 0, 0));
        assert_eq!(word_count(b"   "), (0, 0, 3));
    }

    #[test]
    #[should_panic(expected = "scale must be at least 1")]
    fn zero_scale_rejected() {
        let _ = WorkloadRequest::new(WorkloadKind::Sha1Hash, 1).with_scale(0);
    }
}
