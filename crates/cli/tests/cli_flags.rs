//! The `cppll` front end through the real binary: help requests succeed,
//! and a flag given to a subcommand that does not read it, an unknown flag
//! or a pair of flags that contradict each other is rejected before
//! anything is solved or bound.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cppll"))
        .args(args)
        .output()
        .unwrap()
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn help_prints_the_usage_to_stdout_and_succeeds() {
    for args in [&["--help"][..], &["-h"], &["help"], &["pll", "3", "--help"]] {
        let out = run(args);
        assert!(out.status.success(), "{args:?}: {}", text(&out.stderr));
        let usage = text(&out.stdout);
        assert!(usage.contains("--resolution"), "{args:?}: {usage}");
        assert!(usage.contains("sweep flags:"), "{args:?}: {usage}");
    }
}

#[test]
fn no_or_unknown_subcommand_prints_the_usage_to_stderr_and_fails() {
    for args in [&[][..], &["frobnicate"]] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(text(&out.stderr).contains("usage:"), "{args:?}");
    }
}

#[test]
fn flags_outside_a_subcommands_set_are_rejected_before_any_work() {
    let cases: [(&[&str], &str); 7] = [
        (
            &["pll", "3", "--workers", "2"],
            "--workers does not apply to 'pll'",
        ),
        (
            &["serve", "--isolate"],
            "--isolate does not apply to 'serve'",
        ),
        (
            &[
                "verify",
                "toy.json",
                "--workers",
                "7",
                "--via",
                "1.2.3.4:5",
                "--out",
                "x",
            ],
            "--workers does not apply to 'verify'",
        ),
        // The SDP kernels are serial; only a sweep runs work at once.
        (
            &["pll", "3", "4", "--threads", "2"],
            "--threads does not apply to 'pll'",
        ),
        (
            &["verify", "x.json", "--threads", "2"],
            "--threads does not apply to 'verify'",
        ),
        // The reduction is a fixed policy; `--no-reduce` is its one switch.
        (
            &["pll", "3", "4", "--reduce-mode", "legacy"],
            "unknown flag: --reduce-mode",
        ),
        // The daemon solves support-reduced cells, so an unreduced `--via`
        // atlas would pair one problem's key with another's result.
        (
            &["sweep", "sweep.json", "--via", "1.2.3.4:5", "--no-reduce"],
            "--no-reduce cannot be combined with --via",
        ),
    ];
    for (args, message) in cases {
        let out = run(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert_eq!(text(&out.stderr).trim_end(), message, "{args:?}");
        // Nothing ran: no PLL banner, no listening daemon, no report.
        assert!(out.stdout.is_empty(), "{args:?}: {}", text(&out.stdout));
    }
}
