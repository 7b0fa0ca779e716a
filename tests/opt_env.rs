//! Process-level regression test for the `OCELOT_OPT` knob: an invalid
//! non-empty value must abort the process with a diagnostic naming the
//! accepted values, never fall back silently to the default level (a CI
//! matrix typo like `OCELOT_OPT=O2` would otherwise make the whole opt
//! matrix vacuously test the default).

use std::process::Command;

fn ocelotc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ocelotc"))
}

#[test]
fn invalid_ocelot_opt_aborts_with_a_diagnostic() {
    // `fleet --help` resolves the opt level from the environment before
    // printing usage, so this exercises the knob without simulating.
    // `1` names a level that no longer exists.
    for bad in ["O2", "1"] {
        let out = ocelotc()
            .args(["fleet", "--help"])
            .env("OCELOT_OPT", bad)
            .output()
            .expect("runs ocelotc");
        assert_eq!(
            out.status.code(),
            Some(2),
            "invalid OCELOT_OPT must be a hard process-level error"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr,
            format!("error: invalid OCELOT_OPT value `{bad}`: accepted values are `0` or `2`\n"),
            "names the knob, echoes the bad value and names the accepted values"
        );
    }
}

#[test]
fn valid_and_empty_ocelot_opt_values_are_accepted() {
    for value in ["0", "2", ""] {
        let out = ocelotc()
            .args(["fleet", "--help"])
            .env("OCELOT_OPT", value)
            .output()
            .expect("runs ocelotc");
        assert!(
            out.status.success(),
            "OCELOT_OPT={value:?} must be accepted: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
