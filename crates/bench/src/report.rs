//! The timing and output helpers every JSON-writing bench shares: one
//! sample median and one writer into the workspace's `results/`.

use std::time::Instant;

/// Median of one measured closure over `n` samples, in nanoseconds.
pub fn median_ns(n: usize, mut f: impl FnMut()) -> u128 {
    let mut samples: Vec<u128> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Writes a bench's JSON summary to `results/<file>` at the workspace
/// root (creating the directory) and returns the path written.
pub fn write_results(file: &str, json: &str) -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(dir).expect("create results/");
    let path = format!("{dir}/{file}");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write results/{file}: {e}"));
    path
}
