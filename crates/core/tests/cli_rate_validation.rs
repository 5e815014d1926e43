//! Every float flag of the serving subcommands must be a positive,
//! finite number. An infinite arrival rate, horizon or utilization used
//! to pass validation and make the simulation loop forever (and an
//! infinite KV budget or SLO was used silently); each must now fail fast
//! with the flag's usual message instead. Likewise `repro token`'s
//! length medians must lie in the interval their samples are clamped
//! to, instead of being clamped silently, and `--mix` weights must be
//! finite, and `--kv-budget` must count bytes that fit in `u64`
//! instead of saturating. A finite rate so large that the horizon
//! expects more arrivals than any run could work through must be
//! refused unless `--requests` caps it, and a KV budget below one
//! shortest sequence must be refused instead of dropping every request.
//! No bad input may end in a panic.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Generous for a process that only parses its flags, yet far below what
/// a simulation with an infinite arrival rate would take (it never ends).
const LIMIT: Duration = Duration::from_secs(10);

/// Runs `repro <args>`, killing it if it outlives [`LIMIT`] and failing
/// if it panics. Returns whether it exited successfully and its stderr.
fn repro_bounded(args: &[&str]) -> (bool, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro binary runs");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll repro") {
            break status;
        }
        if start.elapsed() > LIMIT {
            let _ = child.kill();
            let _ = child.wait();
            panic!("`repro {}` did not exit within {LIMIT:?}", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let out = child.wait_with_output().expect("collect repro stderr");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert_ne!(status.code(), Some(101), "`repro {}` panicked: {stderr}", args.join(" "));
    (status.success(), stderr)
}

#[test]
fn infinite_rate_is_rejected_fast() {
    for cmd in ["serve", "token", "fleet"] {
        for rate in ["inf", "infinity", "NaN", "0", "-1"] {
            let (ok, stderr) = repro_bounded(&[cmd, "--rate", rate]);
            assert!(!ok, "`repro {cmd} --rate {rate}` must fail");
            assert!(
                stderr.contains("--rate requires a positive number"),
                "`repro {cmd} --rate {rate}` stderr: {stderr}"
            );
        }
    }
}

#[test]
fn out_of_range_token_lengths_are_rejected_fast() {
    for (flag, value, limit) in [
        ("--prompt-len", "1000000", "from 16 to 8192"),
        ("--prompt-len", "inf", "from 16 to 8192"),
        ("--prompt-len", "NaN", "from 16 to 8192"),
        ("--prompt-len", "8", "from 16 to 8192"),
        ("--output-len", "5000", "from 1 to 4096"),
        ("--output-len", "0", "from 1 to 4096"),
    ] {
        let (ok, stderr) = repro_bounded(&["token", flag, value]);
        assert!(!ok, "`repro token {flag} {value}` must fail");
        let message = format!("{flag} requires a token count {limit}");
        assert!(stderr.contains(&message), "`repro token {flag} {value}` stderr: {stderr}");
    }
}

#[test]
fn non_finite_float_flags_are_rejected_fast() {
    for (cmd, flag, message) in [
        ("serve", "--duration-s", "--duration-s requires a positive number"),
        ("serve", "--slo-ms", "--slo-ms requires a positive number"),
        ("token", "--duration-s", "--duration-s requires a positive number"),
        ("token", "--util", "--util requires a positive fraction"),
        ("token", "--kv-budget", "--kv-budget requires a positive GiB count"),
        ("fleet", "--duration-s", "--duration-s requires a positive number"),
        ("fleet", "--util", "--util requires a positive fraction"),
    ] {
        for value in ["inf", "NaN"] {
            let (ok, stderr) = repro_bounded(&[cmd, flag, value]);
            assert!(!ok, "`repro {cmd} {flag} {value}` must fail");
            assert!(stderr.contains(message), "`repro {cmd} {flag} {value}` stderr: {stderr}");
        }
    }
}

#[test]
fn non_finite_mix_weights_are_rejected_fast() {
    for mix in ["sd:nan", "sd:inf", "sd:1e308,parti:1e308"] {
        let (ok, stderr) = repro_bounded(&["serve", "--mix", mix]);
        assert!(!ok, "`repro serve --mix {mix}` must fail");
        assert!(stderr.contains("mix weight"), "`repro serve --mix {mix}` stderr: {stderr}");
    }
}

#[test]
fn kv_budgets_past_u64_bytes_are_rejected_fast() {
    // 2^34 GiB is exactly 2^64 bytes, the first count that cannot fit.
    for value in ["1e300", "1.8e10", "17179869184"] {
        let (ok, stderr) = repro_bounded(&["token", "--kv-budget", value]);
        assert!(!ok, "`repro token --kv-budget {value}` must fail");
        assert!(
            stderr.contains("--kv-budget requires a positive GiB count"),
            "`repro token --kv-budget {value}` stderr: {stderr}"
        );
    }
    let (ok, stderr) = repro_bounded(&["token", "--kv-budget", "17179869183", "--duration-s", "1"]);
    assert!(ok, "the largest whole GiB count that fits must run: {stderr}");
}

#[test]
fn huge_finite_rates_are_rejected_fast() {
    for args in [
        &["token", "--util", "1e300", "--duration-s", "5"][..],
        &["serve", "--rate", "1e300", "--duration-s", "5"],
        &["serve", "--rate", "1e12", "--duration-s", "5"],
        &["fleet", "--util", "1e300", "--duration-s", "5"],
    ] {
        let (ok, stderr) = repro_bounded(args);
        assert!(!ok, "`repro {}` must fail", args.join(" "));
        assert!(
            stderr.contains("above the limit of 1e9") && stderr.contains("--requests"),
            "`repro {}` stderr: {stderr}",
            args.join(" ")
        );
    }
    // A request cap bounds the run, so the same rate is allowed with one.
    let (ok, stderr) = repro_bounded(&["token", "--util", "1e300", "--requests", "1000"]);
    assert!(ok, "a capped run must still run: {stderr}");
}

#[test]
fn kv_budgets_below_one_sequence_are_rejected_fast() {
    for value in ["1e-12", "0.008"] {
        let (ok, stderr) = repro_bounded(&["token", "--kv-budget", value, "--duration-s", "5"]);
        assert!(!ok, "`repro token --kv-budget {value}` must fail");
        assert!(
            stderr.contains("cannot hold one shortest sequence (17 tokens, 8.5 MiB)"),
            "`repro token --kv-budget {value}` stderr: {stderr}"
        );
    }
    // One that holds a shortest sequence runs, and says how many arrivals
    // it had to drop because a longer sequence did not fit.
    let (ok, stderr) = repro_bounded(&["token", "--kv-budget", "0.01", "--duration-s", "5"]);
    assert!(ok, "a budget above one shortest sequence must run: {stderr}");
    assert!(stderr.contains("arrivals dropped"), "drop warning missing: {stderr}");
}
