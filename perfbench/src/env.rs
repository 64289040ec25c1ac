//! The environment fingerprint attached to every result.

use crate::json::Json;
use std::process::Command;

/// Git revision of the checkout, or why there is none.
fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(
            || "unknown (not a git checkout)".into(),
            |s| s.trim().to_string(),
        )
}

/// Cores, kernel threads, thread override, CPU features, compiler and
/// revision. `scale` names the station counts the workload ran at.
pub fn fingerprint(scale: &str) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let (avx2, fma) = (
        std::is_x86_feature_detected!("avx2"),
        std::is_x86_feature_detected!("fma"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, fma) = (false, false);
    Json::obj([
        ("nproc", Json::from(nproc)),
        (
            "kernel_threads",
            Json::from(stgnn_tensor::par::effective_threads()),
        ),
        (
            "stgnn_threads_env",
            Json::str(std::env::var("STGNN_THREADS").unwrap_or_else(|_| "unset".into())),
        ),
        ("avx2", Json::from(avx2)),
        ("fma", Json::from(fma)),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
        ("git_revision", Json::str(git_revision())),
        ("scale", Json::str(scale)),
    ])
}
