//! The estimators behind every reported number, kept free of I/O so the unit
//! tests can drive them with synthetic samples.
//!
//! Each one is chosen to shrug off what a shared 2-vCPU box does to a run: a
//! neighbour's burst lands in a few slices (so throughput is a *median over
//! slices*), a single stall lands in one block (so p99 is a *median over
//! blocks*), and slow drift moves both arms together (so the monitoring cost
//! is a ratio *within a cycle*).

/// Median of `values` (mean of the two middle elements for even counts).
/// `NaN` for an empty slice — callers treat that as "no samples".
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile (nearest rank, `0 < q <= 1`) of an already sorted slice.
pub fn quantile_sorted(sorted: &[u32], q: f64) -> u32 {
    debug_assert!(!sorted.is_empty());
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One measured slice of one arm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Statements completed in the slice, all lanes.
    pub stmts: u64,
    /// Wall seconds the lanes spent on statements: first start to last end,
    /// less the yardstick's turns.
    pub secs: f64,
    /// Process CPU (user + system) accrued over the slice, seconds, less the
    /// yardstick's.
    pub cpu_secs: f64,
    /// Speed of the box during the slice relative to the reference, as the
    /// yardstick saw it (`crate::yardstick::speed`); 1.0 = reference speed.
    pub speed: f64,
}

impl Slice {
    /// The slice's statement seconds at reference speed: a slice that took
    /// 250 ms on a box running at 0.6 of its speed would have taken 150 ms.
    pub fn ref_secs(&self) -> f64 {
        self.secs * self.speed
    }

    /// Microseconds per statement at reference speed; `NaN` when empty.
    pub fn us_per_stmt(&self) -> f64 {
        if self.stmts == 0 {
            f64::NAN
        } else {
            self.ref_secs() * 1e6 / self.stmts as f64
        }
    }
}

/// `stmt_per_s`: the median over slices of statements ÷ slice seconds at
/// reference speed. A burst that halves a few slices does not move it.
pub fn slice_median_throughput(slices: &[Slice]) -> f64 {
    let rates: Vec<f64> = slices
        .iter()
        .filter(|s| s.ref_secs() > 0.0)
        .map(|s| s.stmts as f64 / s.ref_secs())
        .collect();
    median(&rates)
}

/// `cpu_us_per_stmt`: process CPU accrued over the slices, at reference
/// speed, ÷ statements in them. A total, not a median: CPU ticks are 10 ms
/// wide, so only the sum over many slices has the resolution.
pub fn cpu_us_per_stmt(slices: &[Slice]) -> f64 {
    let stmts: u64 = slices.iter().map(|s| s.stmts).sum();
    let cpu: f64 = slices.iter().map(|s| s.cpu_secs * s.speed).sum();
    if stmts == 0 {
        f64::NAN
    } else {
        cpu * 1e6 / stmts as f64
    }
}

/// How many p99 blocks `n` samples support: `min(20, n / 1000)`, so every
/// block keeps at least ten samples beyond its p99. At least one.
pub fn p99_blocks(n: usize) -> usize {
    (n / 1000).clamp(1, 20)
}

/// `p99_us`: samples (nanoseconds, arrival order) split into
/// [`p99_blocks`] equal blocks; the median of the per-block p99, in
/// microseconds. One stalled block cannot move it; a tail that is heavier
/// everywhere does.
pub fn block_median_p99_us(samples_ns: &[u32]) -> f64 {
    median(&block_p99s_us(samples_ns))
}

/// The p99 of each of the [`p99_blocks`] equal blocks, microseconds.
pub fn block_p99s_us(samples_ns: &[u32]) -> Vec<f64> {
    if samples_ns.is_empty() {
        return Vec::new();
    }
    let blocks = p99_blocks(samples_ns.len());
    let len = samples_ns.len() / blocks;
    samples_ns
        .chunks_exact(len)
        .take(blocks)
        .map(|block| {
            let mut b = block.to_vec();
            b.sort_unstable();
            f64::from(quantile_sorted(&b, 0.99)) / 1e3
        })
        .collect()
}

/// `p50_us`: the median of all samples, in microseconds.
pub fn p50_us(samples_ns: &[u32]) -> f64 {
    if samples_ns.is_empty() {
        return f64::NAN;
    }
    let mut v = samples_ns.to_vec();
    v.sort_unstable();
    f64::from(quantile_sorted(&v, 0.5)) / 1e3
}

/// `part ÷ (part + rest)`, the hit ratio of two counters; 1.0 when both are
/// zero (no traffic misses nothing).
pub fn share(part: f64, rest: f64) -> f64 {
    if part + rest == 0.0 {
        1.0
    } else {
        part / (part + rest)
    }
}

/// `mon_cost_ratio` and its siblings: the median over cycles of
/// (numerator-arm µs/stmt ÷ denominator-arm µs/stmt *in the same cycle*).
/// Cycles with an empty slice are skipped.
pub fn paired_cost_ratio(cycles: &[(Slice, Slice)]) -> f64 {
    let ratios: Vec<f64> = cycles
        .iter()
        .map(|(num, den)| num.us_per_stmt() / den.us_per_stmt())
        .filter(|r| r.is_finite())
        .collect();
    median(&ratios)
}

/// User + system CPU of the whole process in clock ticks, from the text of
/// `/proc/self/stat`. The command name may hold spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the command: state(3) ppid pgrp session tty tpgid flags minflt
    // cminflt majflt cmajflt utime(14) stime(15).
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set in KiB (`VmHWM`) from the text of `/proc/self/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Linux reports process times in ticks of 1/100 s on every supported
/// architecture (`USER_HZ`), independent of the kernel's own HZ.
pub const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// Process CPU seconds so far (all threads), 0.0 where `/proc` is absent.
pub fn process_cpu_secs() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(0.0, |t| t as f64 / CLOCK_TICKS_PER_SEC)
}

/// Current resident set in KiB (`VmRSS`) from the text of
/// `/proc/self/status`.
pub fn parse_vm_rss_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of this process in MiB, `NaN` where `/proc` is absent.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kib(&s))
        .map_or(f64::NAN, |kib| kib as f64 / 1024.0)
}

/// Current resident set of this process in bytes, 0 where `/proc` is absent.
pub fn rss_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_rss_kib(&s))
        .map_or(0.0, |kib| kib as f64 * 1024.0)
}

/// Interquartile range as a share of the median — the spread the driver
/// computes (`statistics.quantiles(values, n=4)`, exclusive method).
pub fn iqr_over_median(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |p: f64| {
        // Python's exclusive method: position p·(n+1), clamped to the ends.
        let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(n);
        v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
    };
    (at(0.75) - at(0.25)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(stmts: u64, secs: f64) -> Slice {
        Slice {
            stmts,
            secs,
            cpu_secs: 0.0,
            speed: 1.0,
        }
    }

    #[test]
    fn a_slow_box_reads_the_same_at_reference_speed() {
        // The same 1000 stmt/s program, once on a quiet box and once while
        // the box (yardstick included) runs at 0.6 of its speed.
        let quiet = slice(250, 0.25);
        let slow = Slice {
            stmts: 150,
            secs: 0.25,
            cpu_secs: 0.25,
            speed: 0.6,
        };
        assert!(
            (slice_median_throughput(&[slow]) - slice_median_throughput(&[quiet])).abs() < 1e-9
        );
        assert!((slow.us_per_stmt() - quiet.us_per_stmt()).abs() < 1e-9);
        assert!((cpu_us_per_stmt(&[slow]) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn slice_median_ignores_a_burst() {
        // 48 slices at 1000 stmt/s; a neighbour halves five of them.
        let mut slices = vec![slice(250, 0.25); 48];
        for s in slices.iter_mut().take(5) {
            s.stmts = 125;
        }
        assert_eq!(slice_median_throughput(&slices), 1000.0);
        // The mean would have read 5 % low.
        let mean = slices.iter().map(|s| s.stmts).sum::<u64>() as f64 / (48.0 * 0.25);
        assert!(mean < 960.0);
    }

    #[test]
    fn cpu_per_stmt_is_a_total() {
        let slices = [
            Slice {
                stmts: 100,
                secs: 0.25,
                cpu_secs: 0.01,
                speed: 1.0,
            },
            Slice {
                stmts: 300,
                secs: 0.25,
                cpu_secs: 0.03,
                speed: 1.0,
            },
        ];
        assert!((cpu_us_per_stmt(&slices) - 100.0).abs() < 1e-9);
        assert!(cpu_us_per_stmt(&[]).is_nan());
    }

    /// 20 000 samples around 10 µs whose top 2 % sit at `tail_ns`.
    fn synthetic(tail_ns: u32) -> Vec<u32> {
        (0..20_000u32)
            .map(|i| {
                if i % 50 == 0 {
                    tail_ns
                } else {
                    10_000 + (i % 7) * 10
                }
            })
            .collect()
    }

    #[test]
    fn block_p99_ignores_one_stalled_block() {
        let base = synthetic(40_000);
        let before = block_median_p99_us(&base);
        // A 500 ms stall: every statement of one block waits behind it.
        let mut stalled = base.clone();
        for s in stalled.iter_mut().skip(3_000).take(1_000) {
            *s = 500_000_000;
        }
        assert_eq!(block_median_p99_us(&stalled), before);
        // The plain p99 over all samples would have jumped to the stall.
        let mut all = stalled.clone();
        all.sort_unstable();
        assert_eq!(quantile_sorted(&all, 0.99), 500_000_000);
    }

    #[test]
    fn block_p99_follows_a_uniform_tail() {
        let before = block_median_p99_us(&synthetic(40_000));
        let after = block_median_p99_us(&synthetic(80_000));
        assert!((after / before - 2.0).abs() < 1e-9, "{before} -> {after}");
    }

    #[test]
    fn block_count_keeps_ten_samples_beyond_p99() {
        assert_eq!(p99_blocks(0), 1);
        assert_eq!(p99_blocks(999), 1);
        assert_eq!(p99_blocks(5_000), 5);
        assert_eq!(p99_blocks(1_000_000), 20);
        // Trailing samples that do not fill a block are dropped, not folded
        // into a short one.
        let v: Vec<u32> = (0..2_500).collect();
        assert!(block_median_p99_us(&v).is_finite());
    }

    #[test]
    fn p50_is_the_median_sample() {
        assert_eq!(p50_us(&[3_000, 1_000, 2_000]), 2.0);
        assert!(p50_us(&[]).is_nan());
    }

    #[test]
    fn same_cycle_pairing_cancels_linear_drift() {
        // The box slows down 30 % over the run; the monitored arm costs a
        // true 1.10× in every cycle, and the arm order flips each cycle.
        let cycles: Vec<(Slice, Slice)> = (0..48)
            .map(|c| {
                let drift = 1.0 + 0.3 * f64::from(c) / 47.0;
                let off_rate = 100_000.0 / drift;
                let on_rate = off_rate / 1.10;
                (
                    slice((on_rate * 0.25) as u64, 0.25),
                    slice((off_rate * 0.25) as u64, 0.25),
                )
            })
            .collect();
        let r = paired_cost_ratio(&cycles);
        assert!((r - 1.10).abs() < 0.001, "{r}");
        // Ratio of the run-wide means drifts with which arm ran when; the
        // unpaired ratio of first-half-on vs second-half-off is far off.
        let on_first: f64 = cycles[..24].iter().map(|c| c.0.us_per_stmt()).sum();
        let off_second: f64 = cycles[24..].iter().map(|c| c.1.us_per_stmt()).sum();
        assert!((on_first / off_second - 1.10).abs() > 0.05);
    }

    #[test]
    fn paired_ratio_skips_empty_slices() {
        let cycles = [
            (slice(100, 0.25), slice(110, 0.25)),
            (slice(0, 0.25), slice(110, 0.25)),
        ];
        assert!((paired_cost_ratio(&cycles) - 1.1).abs() < 1e-9);
    }

    #[test]
    fn parses_proc_self_stat_with_awkward_command() {
        let stat = "1234 (ingot) bench) x) R 1 1234 1234 0 -1 4194560 900 0 0 0 \
                    250 50 0 0 20 0 5 0 12345 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(300));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20_480));
        assert_eq!(parse_vm_rss_kib(status), Some(100));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn live_proc_readers_return_something() {
        assert!(process_cpu_secs() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
        assert!(rss_bytes() <= peak_rss_mib() * 1024.0 * 1024.0);
    }

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert!((iqr_over_median(&v) - 1.0).abs() < 1e-12);
    }
}
