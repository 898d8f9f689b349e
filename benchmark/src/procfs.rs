//! Process CPU time and memory, read from `/proc/self` (std only: no
//! `getrusage` binding).

use std::fs;
use std::io;

/// `/proc/self/stat` counts CPU in `USER_HZ` ticks, which Linux fixes at
/// 100 for every architecture's user-space ABI.
const TICKS_PER_S: f64 = 100.0;

/// User and system CPU seconds consumed by the whole process so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuTimes {
    /// Seconds in user mode, all threads.
    pub user_s: f64,
    /// Seconds in kernel mode, all threads.
    pub sys_s: f64,
}

impl CpuTimes {
    /// User plus system seconds.
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// CPU spent since `earlier`.
    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Parses one `/proc/<pid>/stat` line. The command name (field 2) is
/// parenthesised and may itself hold spaces and parentheses, so fields
/// are counted from the *last* `)`: `utime` and `stime` are fields 14 and
/// 15, the 12th and 13th after it.
pub fn parse_stat(line: &str) -> io::Result<CpuTimes> {
    let (_, rest) = line
        .rsplit_once(')')
        .ok_or_else(|| bad("stat: no command field"))?;
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = |name: &str| -> io::Result<f64> {
        fields
            .next()
            .and_then(|t| t.parse::<u64>().ok())
            .map(|t| t as f64 / TICKS_PER_S)
            .ok_or_else(|| bad(name))
    };
    Ok(CpuTimes {
        user_s: ticks("stat: utime")?,
        sys_s: ticks("stat: stime")?,
    })
}

/// This process's CPU times now.
pub fn cpu_times() -> io::Result<CpuTimes> {
    parse_stat(&fs::read_to_string("/proc/self/stat")?)
}

/// Parses the kB value of `key` (e.g. `VmHWM`) out of a
/// `/proc/<pid>/status` text, as MB.
pub fn parse_status_mb(status: &str, key: &str) -> io::Result<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| bad("status: key missing or not in kB"))
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> io::Result<f64> {
    parse_status_mb(&fs::read_to_string("/proc/self/status")?, "VmHWM")
}

/// Current resident set of this process (`VmRSS`), in MB.
pub fn rss_mb() -> io::Result<f64> {
    parse_status_mb(&fs::read_to_string("/proc/self/status")?, "VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        // A hostile command name: spaces and a ')' inside field 2.
        let line = "4242 (ssmfp) bench (x) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    1234 567 0 0 20 0 7 0 100 1000000 500 18446744073709551615";
        let t = parse_stat(line).unwrap();
        assert_eq!(t.user_s, 12.34);
        assert_eq!(t.sys_s, 5.67);
        assert!((t.total_s() - 18.01).abs() < 1e-9);
        let later = CpuTimes {
            user_s: 13.0,
            sys_s: 6.0,
        };
        let d = later.since(&t);
        assert!((d.user_s - 0.66).abs() < 1e-9 && (d.sys_s - 0.33).abs() < 1e-9);
        assert!(parse_stat("no parens here").is_err());
        assert!(parse_stat("1 (x) S 1 2 3").is_err());
    }

    #[test]
    fn status_values_parse_as_mb() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t    1536 kB\n";
        assert_eq!(parse_status_mb(status, "VmHWM").unwrap(), 20.0);
        assert_eq!(parse_status_mb(status, "VmRSS").unwrap(), 1.5);
        assert!(parse_status_mb(status, "VmSwap").is_err());
    }

    #[test]
    fn live_readings_are_sane() {
        let t = cpu_times().unwrap();
        assert!(t.total_s() >= 0.0);
        assert!(peak_rss_mb().unwrap() >= rss_mb().unwrap() * 0.5);
    }
}
