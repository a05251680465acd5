//! Process counters read straight from `/proc/self`, without a libc
//! binding: minor faults and CPU time from `stat`, peak resident set
//! from `status`.

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`). The
/// kernel exports CPU times in this unit whatever its internal tick rate;
/// it is 100 on every Linux architecture this benchmark targets.
pub const USER_HZ: f64 = 100.0;

/// The counters of one `/proc/self/stat` snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcStat {
    /// Minor page faults of the whole process (all threads, live or
    /// exited).
    pub minflt: u64,
    /// User-mode CPU time, in clock ticks.
    pub utime: u64,
    /// Kernel-mode CPU time, in clock ticks.
    pub stime: u64,
}

impl ProcStat {
    /// Reads `/proc/self/stat`.
    ///
    /// # Panics
    ///
    /// Panics when the file is unreadable or malformed: the benchmark's
    /// numbers would be meaningless without it.
    pub fn now() -> Self {
        let text = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
        parse_stat(&text).expect("parse /proc/self/stat")
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            minflt: self.minflt - earlier.minflt,
            utime: self.utime - earlier.utime,
            stime: self.stime - earlier.stime,
        }
    }

    /// User time in seconds.
    pub fn utime_s(&self) -> f64 {
        self.utime as f64 / USER_HZ
    }

    /// Kernel time in seconds.
    pub fn stime_s(&self) -> f64 {
        self.stime as f64 / USER_HZ
    }

    /// User plus kernel time in seconds.
    pub fn cpu_s(&self) -> f64 {
        self.utime_s() + self.stime_s()
    }
}

/// Parses the contents of `/proc/<pid>/stat`. The command name (field 2)
/// is parenthesised and may itself hold spaces and parentheses, so the
/// numeric fields are counted from the *last* `)`.
pub fn parse_stat(text: &str) -> Option<ProcStat> {
    let (_, rest) = text.rsplit_once(')')?;
    // `rest` starts at field 3 (state); field N sits at index N - 3.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(ProcStat {
        minflt: field(10)?,
        utime: field(14)?,
        stime: field(15)?,
    })
}

/// Parses the `VmHWM` (peak resident set) line of `/proc/<pid>/status`,
/// in KiB.
pub fn parse_vm_hwm_kib(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(value)
}

/// Peak resident set of this process so far, in MiB.
///
/// # Panics
///
/// Panics when `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&text).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_parenthesis() {
        // A command name holding spaces and a ')' must not shift fields.
        let text = "4242 (a b) c)) S 1 4242 4242 0 -1 4194560 1234 0 5 0 77 33 0 0 20 0 3 0 \
                    100 2000000 300 18446744073709551615\n";
        let stat = parse_stat(text).unwrap();
        assert_eq!(
            stat,
            ProcStat {
                minflt: 1234,
                utime: 77,
                stime: 33
            }
        );
        assert!((stat.cpu_s() - 1.10).abs() < 1e-12);
    }

    #[test]
    fn truncated_or_garbled_stat_is_rejected() {
        assert_eq!(parse_stat("4242 (x) S 1 2 3"), None);
        assert_eq!(parse_stat("no parenthesis at all"), None);
        assert_eq!(parse_stat("1 (x) S 1 1 1 0 -1 0 many 0 0 0 1 1"), None);
    }

    #[test]
    fn live_stat_reads_and_is_monotone() {
        let a = ProcStat::now();
        let v: Vec<u8> = (0..1 << 20).map(|i| i as u8).collect();
        std::hint::black_box(&v);
        let b = ProcStat::now();
        let d = b.since(&a);
        assert!(b.minflt >= a.minflt && d.utime <= b.utime);
    }

    #[test]
    fn vm_hwm_parses_kib() {
        let text = "Name:\tgridbench\nVmPeak:\t  99 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(text), Some(12345));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }
}
