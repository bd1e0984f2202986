//! Command-line helpers the `figures` and `tracegen` binaries share.

/// Print `msg` to stderr and exit with code 2, the usage-error code of
/// the `anu_harness::gate_exit_code` contract. Every malformed command
/// line is reported through here, before any run starts.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Parse the value that follows a flag, or exit through [`usage_error`]
/// with `need` when it is missing or does not parse.
pub fn flag_value<T: std::str::FromStr>(value: Option<String>, need: &str) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage_error(need))
}
