//! The `baps_top` dashboard against its self-hosted demo deployment: two
//! plain-text frames, each rendered from one METRICS round trip.

use std::process::Command;

#[test]
fn demo_renders_two_plain_frames_and_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_baps_top"))
        .args([
            "--demo",
            "--iterations",
            "2",
            "--interval-ms",
            "200",
            "--plain",
        ])
        .output()
        .expect("baps_top runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "baps_top exited {}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout.matches("baps_top — uptime=").count(), 2, "{stdout}");
    assert!(
        stdout
            .lines()
            .any(|l| l.trim_start().starts_with("tier split")),
        "{stdout}"
    );
}
