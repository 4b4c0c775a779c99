//! Command-line usage errors of the `impatience` binary exit with code 2
//! before any work starts.

use std::process::{Command, Output};

fn impatience(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_impatience"))
        .args(args)
        .output()
        .expect("the binary runs")
}

/// `reproduce` selects specs by name, by figure or all of them, never
/// by two of these at once.
#[test]
fn reproduce_rejects_more_than_one_spec_selector() {
    for args in [
        &["reproduce", "ablation_qcr", "--fig", "3", "--list"][..],
        &["reproduce", "fig4", "--all", "--list"],
        &["reproduce", "--fig", "2", "--all", "--list"],
    ] {
        let out = impatience(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("give only one"), "{args:?}: {stderr}");
    }
    let listed = impatience(&["reproduce", "--fig", "3", "--list"]);
    assert_eq!(listed.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&listed.stdout).contains("fig3"));
}
