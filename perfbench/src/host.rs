//! Host readings: CPU steal from `/proc/stat`, run-queue wait from
//! `schedstat`, peak resident set from `/proc/self/status` and, for a child
//! process, from `wait4`. Linux only, as is the benchmark.
//!
//! Steal and run-queue wait are printed beside each run's metrics and never
//! gate it: they tell a run slowed by the host apart from a slow change.

use std::path::Path;
use std::process::{Child, ExitStatus};

/// Aggregate CPU time counters of `/proc/stat`, in clock ticks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuTimes {
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    pub total: u64,
    /// Time the hypervisor ran something else while this guest wanted a CPU.
    pub steal: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat`. Guest time is already
/// counted in user and nice, so only the first eight fields are summed.
pub fn parse_proc_stat(text: &str) -> Option<CpuTimes> {
    let line = text.lines().find(|l| l.split_whitespace().next() == Some("cpu"))?;
    let fields: Vec<u64> =
        line.split_whitespace().skip(1).take(8).map(|f| f.parse().ok()).collect::<Option<_>>()?;
    if fields.len() < 8 {
        return None;
    }
    Some(CpuTimes { total: fields.iter().sum(), steal: fields[7] })
}

/// Share of CPU time stolen between two readings; `None` if no time passed.
pub fn steal_share(before: CpuTimes, after: CpuTimes) -> Option<f64> {
    let total = after.total.checked_sub(before.total)?;
    let steal = after.steal.checked_sub(before.steal)?;
    (total > 0).then(|| steal as f64 / total as f64)
}

/// One task's `schedstat`: time on CPU, time waiting on a run queue, and
/// timeslices run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedStat {
    /// Nanoseconds spent running.
    pub run_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    pub wait_ns: u64,
    /// Timeslices run.
    pub slices: u64,
}

/// Parses a `schedstat` file: three whitespace-separated counters.
pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut f = text.split_whitespace().map(str::parse::<u64>);
    Some(SchedStat { run_ns: f.next()?.ok()?, wait_ns: f.next()?.ok()?, slices: f.next()?.ok()? })
}

/// Parses the `VmHWM` (peak resident set) line of a `status` file, in KiB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kb)
}

fn read(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// This process's peak resident set, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_kb(&read("/proc/self/status")?).map(|kb| kb as f64 / 1024.0)
}

/// Steal and run-queue wait over a measured window.
#[derive(Clone, Copy, Debug)]
pub struct NoiseProbe {
    cpu: Option<CpuTimes>,
    sched: Option<SchedStat>,
}

fn read_cpu() -> Option<CpuTimes> {
    parse_proc_stat(&read("/proc/stat")?)
}

fn read_thread_sched() -> Option<SchedStat> {
    parse_schedstat(&read("/proc/thread-self/schedstat")?)
}

impl NoiseProbe {
    /// Takes the window's opening readings.
    pub fn start() -> Self {
        NoiseProbe { cpu: read_cpu(), sched: read_thread_sched() }
    }

    /// One line describing the window. `child_wait_ns` replaces the calling
    /// thread's run-queue wait when the measured work ran in child processes.
    pub fn describe(&self, child_wait_ns: Option<u64>) -> String {
        let steal = self.cpu.zip(read_cpu()).and_then(|(before, after)| steal_share(before, after));
        let (wait, whose) = match child_wait_ns {
            Some(ns) => (Some(ns), "child processes"),
            None => {
                let wait = self.sched.zip(read_thread_sched());
                (wait.and_then(|(a, b)| b.wait_ns.checked_sub(a.wait_ns)), "measuring thread")
            }
        };
        let steal = steal.map_or_else(|| "n/a".into(), |s| format!("{:.2}%", s * 100.0));
        let wait = wait.map_or_else(|| "n/a".into(), |ns| format!("{:.1} ms", ns as f64 / 1e6));
        format!("host noise: CPU steal {steal} of all CPU time, run-queue wait {wait} ({whose})")
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
mod sys {
    use std::os::raw::c_int;

    const P_PID: c_int = 1;
    const WEXITED: c_int = 4;
    const WNOWAIT: c_int = 0x0100_0000;

    extern "C" {
        fn waitid(idtype: c_int, id: u32, infop: *mut [u64; 16], options: c_int) -> c_int;
        fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut [i64; 18]) -> c_int;
    }

    /// Blocks until child `pid` has exited, leaving it unreaped.
    pub fn wait_exited_unreaped(pid: u32) -> bool {
        let mut info = [0u64; 16];
        // SAFETY: `siginfo_t` is 128 bytes on Linux; `info` is a writable,
        // 8-byte-aligned 128-byte buffer, and waitid writes only inside it.
        let rc = unsafe { waitid(P_PID, pid, &mut info, WEXITED | WNOWAIT) };
        rc == 0
    }

    /// Reaps child `pid`: its raw wait status and `ru_maxrss` in KiB.
    pub fn reap(pid: u32) -> Option<(c_int, u64)> {
        let pid = c_int::try_from(pid).ok()?;
        let (mut status, mut usage) = (0 as c_int, [0i64; 18]);
        // SAFETY: `status` is a writable c_int; on 64-bit Linux `struct
        // rusage` is two `timeval`s (two `long`s each) then fourteen `long`s,
        // 18 aligned i64s, exactly `usage`. wait4 writes only inside both.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        (rc == pid).then(|| (status, u64::try_from(usage[4]).unwrap_or(0)))
    }
}

/// How a child process ended.
#[derive(Debug)]
pub struct ChildExit {
    /// Its exit status.
    pub status: ExitStatus,
    /// Its final scheduler counters, if readable.
    pub sched: Option<SchedStat>,
    /// Its own peak resident set, MiB.
    pub peak_rss_mb: Option<f64>,
}

/// Waits for `child` and reaps it, reading its final `schedstat` in between
/// (an exited, unreaped child keeps its scheduler counters readable) and its
/// own peak resident set from `wait4`.
pub fn wait_child(child: &mut Child) -> std::io::Result<ChildExit> {
    use std::os::unix::process::ExitStatusExt as _;
    let pid = child.id();
    let sched = sys::wait_exited_unreaped(pid)
        .then(|| read(format!("/proc/{pid}/schedstat")).as_deref().and_then(parse_schedstat))
        .flatten();
    Ok(match sys::reap(pid) {
        Some((raw, maxrss_kb)) => ChildExit {
            status: ExitStatus::from_raw(raw),
            sched,
            peak_rss_mb: Some(maxrss_kb as f64 / 1024.0),
        },
        None => ChildExit { status: child.wait()?, sched, peak_rss_mb: None },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "cpu  100 5 50 1000 20 3 2 40 7 0\n\
                        cpu0 50 2 25 500 10 1 1 20 3 0\n\
                        intr 12345\n";

    #[test]
    fn proc_stat_sums_the_first_eight_fields() {
        let t = parse_proc_stat(STAT).unwrap();
        assert_eq!(t, CpuTimes { total: 100 + 5 + 50 + 1000 + 20 + 3 + 2 + 40, steal: 40 });
        let later = CpuTimes { total: t.total + 200, steal: t.steal + 10 };
        assert_eq!(steal_share(t, later), Some(0.05));
        assert_eq!(steal_share(t, t), None);
    }

    #[test]
    fn proc_stat_rejects_short_or_missing_lines() {
        assert_eq!(parse_proc_stat("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_proc_stat("cpu 1 2 3\n"), None);
        assert_eq!(parse_proc_stat("cpu 1 2 x 4 5 6 7 8\n"), None);
    }

    #[test]
    fn schedstat_reads_three_counters() {
        assert_eq!(
            parse_schedstat("123456 7890 42\n"),
            Some(SchedStat { run_ns: 123_456, wait_ns: 7890, slices: 42 })
        );
        assert_eq!(parse_schedstat("1 2\n"), None);
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  90000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51_234));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn live_readings_parse_on_this_kernel() {
        assert!(parse_proc_stat(&read("/proc/stat").unwrap()).is_some());
        assert!(parse_schedstat(&read("/proc/thread-self/schedstat").unwrap()).is_some());
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn child_schedstat_and_peak_rss_are_read_before_reaping() {
        let mut child = std::process::Command::new("true").spawn().unwrap();
        let exit = wait_child(&mut child).unwrap();
        assert!(exit.status.success());
        assert!(exit.sched.is_some(), "an exited, unreaped child keeps its schedstat");
        assert!(exit.peak_rss_mb.unwrap() > 0.0);

        let mut failing = std::process::Command::new("false").spawn().unwrap();
        assert_eq!(wait_child(&mut failing).unwrap().status.code(), Some(1));
    }
}
