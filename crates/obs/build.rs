//! Bakes the git SHA into the build so `/v1/healthz` and metrics
//! snapshots can report exactly which tree produced them. Falls back to
//! `"unknown"` outside a git checkout (e.g. a source tarball).

use std::path::Path;
use std::process::Command;

fn main() {
    let sha = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=LANGCRUX_GIT_SHA={sha}");
    for path in sha_inputs(Path::new("../../.git")) {
        println!("cargo:rerun-if-changed={path}");
    }
}

/// The files whose change can move the SHA. A commit on the current
/// branch rewrites the branch's ref file (or `packed-refs`), not `HEAD`,
/// so all three are watched when they exist. Cargo re-runs the script on
/// every build for a watched path that does not exist, so outside a git
/// checkout only this script itself is watched.
fn sha_inputs(git: &Path) -> Vec<String> {
    let head = git.join("HEAD");
    let Ok(head_text) = std::fs::read_to_string(&head) else {
        return vec!["build.rs".to_string()];
    };
    let mut inputs = vec![head];
    if let Some(branch) = head_text.strip_prefix("ref: ") {
        inputs.push(git.join(branch.trim()));
    }
    inputs.push(git.join("packed-refs"));
    inputs
        .into_iter()
        .filter(|path| path.is_file())
        .map(|path| path.display().to_string())
        .collect()
}
