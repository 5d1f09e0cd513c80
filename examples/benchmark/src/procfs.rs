//! What the operating system says about this process — CPU time, resident
//! memory, per-thread CPU by thread name, the environment block written into
//! every result — and the one thing the benchmark asks of it: to run on a
//! single CPU. Linux only; the benchmark targets the socket runtime's epoll
//! reactor, which is Linux-only already.

use crate::json::Json;
use std::fs;
use std::path::Path;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it spawns afterwards, to
/// the highest-numbered CPU it may run on; returns that CPU.
///
/// Why: on the two-vCPU sandbox a wake-up across CPUs costs ten times a
/// wake-up on the same CPU (45 µs against 4 µs per channel round trip), and
/// the scheduler moves threads between the two regimes every few seconds, so
/// an unpinned closed loop measures thread placement (2.8 against 3.9 kop/s
/// on identical runs). On one CPU the work per operation is what is left.
pub fn pin_to_one_cpu() -> Option<usize> {
    const WORDS: usize = 16; // room for 1024 CPUs, the kernel's usual limit
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let got =
        unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let word = allowed.iter().rposition(|word| *word != 0)?;
    let cpu = word * 64 + (63 - allowed[word].leading_zeros() as usize);
    let mut only = [0u64; WORDS];
    only[word] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly the size passed and is only
    // read; pid 0 names the calling thread.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) };
    (set == 0).then_some(cpu)
}

/// CPU time the calling thread has used, ns (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut now = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `now` is a live, writable `timespec` (two 64-bit fields on every
    // 64-bit Linux target) and the clock id is a constant the kernel defines.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) } != 0 {
        return 0;
    }
    now.sec as u64 * 1_000_000_000 + now.nsec as u64
}

/// How slow the machine is right now, measured on fixed work that uses none
/// of the program under test: loopback datagram round trips, timed in this
/// thread's CPU time so that being preempted does not count.
///
/// Why: co-tenants slow the sandbox by up to 60 % for minutes at a time (the
/// same commit, same seeds: `lion_small` at 4.2 and then 2.5 kop/s, ten runs
/// each, both sets within ±10 %). A register-only loop does not feel it; this
/// kernel-and-cache path does, and tracks the workloads' CPU per operation
/// with r = 0.83–0.88, so dividing by it removes most of the drift.
pub struct Calibration {
    socket: std::net::UdpSocket,
}

/// What one round trip costs on the quiet sandbox, µs. Every timing metric is
/// scaled by `REFERENCE_US_PER_ROUND_TRIP ÷ measured`; only the constancy of
/// this number matters, not its value.
const REFERENCE_US_PER_ROUND_TRIP: f64 = 2.0;

impl Calibration {
    pub fn new() -> std::io::Result<Calibration> {
        let socket = std::net::UdpSocket::bind("127.0.0.1:0")?;
        socket.connect(socket.local_addr()?)?;
        Ok(Calibration { socket })
    }

    /// The slowdown factor now: 1 on the quiet reference machine, 1.5 when
    /// the same work takes half as long again. About 0.5 ms of CPU.
    pub fn factor(&self) -> f64 {
        const ROUND_TRIPS: u32 = 200;
        let mut buf = [0u8; 32];
        let start = thread_cpu_ns();
        for _ in 0..ROUND_TRIPS {
            // A datagram to this socket's own address cannot be lost; if the
            // kernel refuses either call the sample is merely too cheap.
            let _ = self.socket.send(&buf);
            let _ = self.socket.recv(&mut buf);
        }
        let us_per_round_trip = (thread_cpu_ns() - start) as f64 / 1e3 / f64::from(ROUND_TRIPS);
        us_per_round_trip / REFERENCE_US_PER_ROUND_TRIP
    }
}

/// `/proc` reports CPU time in clock ticks of `USER_HZ`, which is 100 on
/// every Linux architecture; std has no `sysconf` to ask.
const TICK_US: f64 = 10_000.0;

/// `utime + stime` out of a `/proc/.../stat` line, in microseconds. The
/// command name is parenthesised and may itself hold spaces or parentheses,
/// so fields are counted from the last `)`.
fn stat_cpu_us(stat: &str) -> Option<(String, f64)> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    let comm = stat.get(open + 1..close)?.to_string();
    let mut rest = stat.get(close + 1..)?.split_ascii_whitespace();
    // After the name: state is field 3, utime field 14, stime field 15.
    let utime: f64 = rest.nth(11)?.parse().ok()?;
    let stime: f64 = rest.next()?.parse().ok()?;
    Some((comm, (utime + stime) * TICK_US))
}

/// CPU time this process has used so far (all threads, user + system), µs.
pub fn process_cpu_us() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| stat_cpu_us(&stat))
        .map_or(0.0, |(_, us)| us)
}

/// CPU time of every live thread, by thread name, µs.
pub fn thread_cpu_us() -> Vec<(String, f64)> {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|task| fs::read_to_string(task.ok()?.path().join("stat")).ok())
        .filter_map(|stat| stat_cpu_us(&stat))
        .collect()
}

fn status_mb(field: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with(field))?;
            line.split_ascii_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size (`VmHWM`) of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident set size (`VmRSS`) of this process now, MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/self/mountinfo`).
pub fn filesystem_of(path: &Path) -> String {
    // The directory may not exist yet; its nearest existing ancestor is on
    // the filesystem it will be created on.
    let absolute =
        std::env::current_dir().map_or_else(|_| path.to_path_buf(), |cwd| cwd.join(path));
    let Some(path) = absolute
        .ancestors()
        .find_map(|dir| fs::canonicalize(dir).ok())
    else {
        return "unknown".to_string();
    };
    let Ok(mounts) = fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|line| {
            // "... mount-point options [optional fields] - fstype source ..."
            let (before, after) = line.split_once(" - ")?;
            let mount_point = before.split(' ').nth(4)?;
            let fstype = after.split(' ').next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |text| text.trim().to_string())
}

/// Where and how a result was measured; written into every result so two
/// files are only ever compared knowingly.
pub fn environment(store_dir: &Path, pinned_cpu: Option<usize>) -> Json {
    let cores = fs::read_to_string("/proc/cpuinfo").map_or(0, |info| {
        info.lines()
            .filter(|line| line.starts_with("processor"))
            .count()
    });
    Json::obj([
        ("nproc", Json::from(cores as u64)),
        (
            "pinned_cpu",
            pinned_cpu.map_or(Json::Null, |cpu| Json::from(cpu as u64)),
        ),
        (
            "kernel",
            Json::from(
                fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            ),
        ),
        ("rustc", Json::from(command_line("rustc", &["--version"]))),
        (
            "commit",
            Json::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("store_dir", Json::from(store_dir.display().to_string())),
        ("store_dir_filesystem", Json::from(filesystem_of(store_dir))),
        (
            "network",
            Json::from("loopback TCP, no injected delay: latency is processor time only"),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_lines_with_awkward_names() {
        let line = "42 (replica (0)) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0 100 0 0";
        let (comm, us) = stat_cpu_us(line).unwrap();
        assert_eq!(comm, "replica (0)");
        assert_eq!(us, 300.0 * TICK_US);
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(!thread_cpu_us().is_empty());
        assert_ne!(filesystem_of(Path::new("/proc")), "unknown");
    }
}
