//! Facts about the machine and build a result was measured on. A number
//! without them cannot be compared with another, so every result file
//! carries them.

use std::process::Command;

use hrviz_obs::Json;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// `nproc`, CPU model, compiler and commit. The driver's checkout is not a
/// git repository, so the commit reads `unknown` there.
pub fn facts() -> Json {
    Json::obj([
        ("nproc", Json::U64(nproc() as u64)),
        ("cpu_model", Json::Str(cpu_model())),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        ("git_commit", Json::Str(command_line("git", &["rev-parse", "HEAD"]))),
    ])
}

/// One `kB` line of `/proc/self/status` (`VmHWM:`, `VmRSS:`), in MB.
pub fn rss_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Peak resident set of this process (`VmHWM`) since the last
/// [`reset_peak_rss`], in MB.
pub fn peak_rss_mb() -> f64 {
    rss_mb("VmHWM:")
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand the allocator's free pages back to the kernel, so the resident set is
/// what is live and not what earlier work left in the arenas. glibc only;
/// elsewhere the arenas keep what they hold.
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` takes no pointer and has no precondition; glibc
    // documents it as callable at any time, and it takes the arena locks itself.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        malloc_trim(0);
    }
}

/// Reset `VmHWM` to the current resident set (`5` to `clear_refs`, see
/// proc(5)). Returns whether the kernel accepted it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}
