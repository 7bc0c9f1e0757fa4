//! Order statistics, process readings from `/proc`, and bit-exact digests.

use panacea_serve::Payload;
use panacea_tensor::Matrix;

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// `(q1, median, q3)` of a set of repeats.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v.to_vec());
    (quantile(&s, 0.25), quantile(&s, 0.5), quantile(&s, 0.75))
}

/// The p99 of `sorted`, or `None` when fewer than ten samples lie beyond
/// it — a tail the sample cannot support is not reported.
pub fn supported_p99(sorted: &[f64]) -> Option<f64> {
    let p99 = quantile(sorted, 0.99);
    let beyond = sorted.iter().filter(|&&v| v > p99).count();
    (beyond >= 10).then_some(p99)
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    // USER_HZ is 100 on every Linux ABI this runs on.
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat readable");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / TICKS_PER_S
}

/// Peak resident set size in MiB (`VmHWM` from `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM present");
    kb / 1024.0
}

/// FNV-1a over a matrix's shape and element bits: equal digests mean
/// bit-identical matrices (up to a 2^-64 collision).
fn digest(rows: usize, cols: usize, bits: impl Iterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(rows as u64);
    eat(cols as u64);
    for b in bits {
        eat(u64::from(b));
    }
    h
}

pub fn digest_f32(m: &Matrix<f32>) -> u64 {
    digest(m.rows(), m.cols(), m.iter().map(|v| v.to_bits()))
}

pub fn digest_i32(m: &Matrix<i32>) -> u64 {
    digest(m.rows(), m.cols(), m.iter().map(|&v| v as u32))
}

pub fn digest_payload(p: &Payload) -> u64 {
    match p {
        Payload::Codes(m) => digest_i32(m),
        Payload::Hidden(m) => digest_f32(m),
    }
}
