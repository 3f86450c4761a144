//! Process-level measurements read from the kernel: CPU time, peak
//! resident memory, child processes and the L2 cache size.

use std::time::Duration;

/// Clock ticks per second used by `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// every Linux ABI this benchmark runs on).
const USER_HZ: f64 = 100.0;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    // maxrss .. nivcsw: fourteen longs the benchmark does not read.
    _rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU time consumed so far by this process (all threads).
pub fn cpu_time() -> Duration {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        _rest: [0; 14],
    };
    // SAFETY: `ru` is a properly aligned, writable `struct rusage` of the
    // x86-64/aarch64 Linux layout (two timevals followed by fourteen
    // longs); getrusage writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let tv = |t: &Timeval| Duration::new(t.tv_sec as u64, (t.tv_usec * 1000) as u32);
    tv(&ru.ru_utime) + tv(&ru.ru_stime)
}

/// Peak resident set size of `pid` (`self` for this process) in MiB,
/// from `VmHWM` in `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time (user + system) consumed so far by process `pid`.
pub fn proc_cpu_time(pid: u32) -> Option<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
    Some(Duration::from_secs_f64(ticks / USER_HZ))
}

/// Live child processes of this process, by pid.
pub fn child_pids() -> Vec<u32> {
    let me = std::process::id();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for e in dir.flatten() {
        let Some(pid) = e.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        let ppid = stat
            .rfind(')')
            .and_then(|i| stat[i + 2..].split_whitespace().nth(1))
            .and_then(|s| s.parse::<u32>().ok());
        if ppid == Some(me) {
            out.push(pid);
        }
    }
    out.sort_unstable();
    out
}

/// Online CPUs (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
