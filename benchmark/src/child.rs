//! Exact child-process accounting: wall time from a monotonic clock, CPU
//! time and peak RSS from the kernel's own `rusage` as returned by
//! `wait4` — no `/proc` polling, so a short-lived peak cannot be missed.
//!
//! The two libc symbols are declared by hand because the build is offline
//! and the `libc` crate is not vendored; std already links libc.

use std::process::Command;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("child accounting declares the 64-bit Linux `struct rusage` layout");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals then fourteen longs, of
/// which only `ru_maxrss` (KiB) is read here.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished child cost.
#[derive(Debug, Clone, Copy)]
pub struct ChildUsage {
    /// Spawn to reap, seconds.
    pub wall_s: f64,
    /// User + system CPU, seconds.
    pub cpu_s: f64,
    /// Peak resident set, MiB.
    pub peak_rss_mib: f64,
    /// The spawning process's own peak (`VmHWM`) at spawn time, MiB. Linux
    /// seeds an exec'd child's `ru_maxrss` with the high-water mark of the
    /// address space it was spawned from, so `peak_rss_mib` is the child's
    /// only while it exceeds this. (The spawner's own `ru_maxrss` will not
    /// do as the floor, being seeded by *its* parent the same way.)
    pub spawner_peak_rss_mib: f64,
    /// Exit code; `None` when a signal killed the child.
    pub exit_code: Option<i32>,
}

fn seconds(t: &Timeval) -> f64 {
    t.tv_sec as f64 + t.tv_usec as f64 / 1e6
}

/// Spawn `cmd`, wait for it, and return its exact resource usage.
pub fn run_child(cmd: &mut Command) -> Result<ChildUsage, String> {
    let spawner_peak_rss_mib = spdyier_prof::peak_rss_kb() as f64 / 1024.0;
    let started = Instant::now();
    let child = cmd.spawn().map_err(|e| format!("spawn {cmd:?}: {e}"))?;
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: `pid` names a child this process just spawned and has
        // not reaped (`Child::wait` is never called on it), and `status`
        // and `ru` are live, writable and correctly laid out.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    // WIFEXITED / WEXITSTATUS.
    let exit_code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(ChildUsage {
        wall_s,
        cpu_s: seconds(&ru.ru_utime) + seconds(&ru.ru_stime),
        peak_rss_mib: ru.ru_maxrss as f64 / 1024.0,
        spawner_peak_rss_mib,
        exit_code,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const HELPER_MIB: &str = "SPDYIER_BENCH_HELPER_MIB";
    const HELPER_EXIT: &str = "SPDYIER_BENCH_HELPER_EXIT";

    /// Not a test of its own: re-invoked as a child by the tests below, it
    /// touches the requested number of MiB, spins briefly, and exits with
    /// the requested code.
    #[test]
    fn helper() {
        let Ok(mib) = std::env::var(HELPER_MIB) else {
            return;
        };
        let mib: usize = mib.parse().expect("helper size");
        let mut block = vec![0u8; mib << 20];
        for page in block.chunks_mut(4096) {
            page[0] = 1;
        }
        let spin = Instant::now();
        while spin.elapsed().as_millis() < 50 {
            std::hint::black_box(&block);
        }
        let code = std::env::var(HELPER_EXIT).expect("helper exit code");
        std::process::exit(code.parse().expect("helper exit code"));
    }

    fn run_helper(mib: &str, exit: &str) -> ChildUsage {
        let exe = std::env::current_exe().expect("test binary path");
        let mut cmd = Command::new(exe);
        cmd.args(["--exact", "child::tests::helper", "--test-threads", "1"])
            .env(HELPER_MIB, mib)
            .env(HELPER_EXIT, exit)
            .stdout(std::process::Stdio::null());
        run_child(&mut cmd).expect("helper child runs")
    }

    #[test]
    fn child_rusage_sees_a_known_allocation() {
        let usage = run_helper("64", "0");
        assert_eq!(usage.exit_code, Some(0));
        // 64 MiB touched, plus the test binary's own few MiB.
        assert!(
            (64.0..80.0).contains(&usage.peak_rss_mib),
            "peak RSS {} MiB",
            usage.peak_rss_mib
        );
        assert!(usage.spawner_peak_rss_mib > 0.0 && usage.spawner_peak_rss_mib < 64.0);
        assert!(usage.cpu_s >= 0.04, "the spin is CPU time: {}", usage.cpu_s);
        assert!(
            usage.wall_s >= 0.05,
            "the spin is wall time: {}",
            usage.wall_s
        );
    }

    #[test]
    fn a_failing_child_reports_its_exit_code() {
        assert_eq!(run_helper("32", "3").exit_code, Some(3));
    }
}
